package main

import (
	"context"
	"fmt"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
)

// The controller workload: client.Run with the paper's hybrid controller
// against backends that price every block with a netsim profile and
// never sleep. The controller observes the priced (injected) cost, so
// its decisions — and the achieved-over-optimum cost ratio — depend only
// on the seed, never on the machine; the wall-clock metrics of the same
// runs watch the adaptive-size pull path.

const (
	// ctlSeeds is how many controller seeds each profile is run with.
	ctlSeeds = 5
	// shiftAtObserve is the Observe call at which the "shift" profile's
	// server load changes under the running query.
	shiftAtObserve = 12
	// settleBand is how close to the oracle's size counts as settled.
	settleBand = 0.10
)

// ctlProfileNames are the priced profiles, in job order.
var ctlProfileNames = []string{"conf1.1", "conf2.2", "shift", "conf1.3"}

// shiftLoad is the load the shift profile moves to mid-query: two more
// concurrent queries and some memory pressure pull conf2.2's interior
// optimum well to the left, so a controller that stops adapting pays.
var shiftLoad = netsim.Load{Queries: 2, Memory: 0.3}

// ctlProfile is one priced configuration, scaled from the paper's
// full-size relation down to this dataset the way cmd/wsbench scales it:
// the tuple axis shrinks by scale, so block-count dynamics are the same.
type ctlProfile struct {
	name   string
	model  netsim.CostModel
	limits core.Limits
	b1     float64
	scale  float64
	tuples int
	// shift makes the server's load change at shiftAtObserve.
	shift bool
}

// scaleModel shrinks the cost model's tuple axis by scale.
func scaleModel(m netsim.CostModel, scale float64) netsim.CostModel {
	m.PerTupleMS *= scale
	if m.KneeTuples > 0 {
		m.KneeTuples /= scale
	}
	m.PenaltyMS *= scale * scale
	if m.RipplePeriod > 0 {
		m.RipplePeriod /= scale
	}
	return m
}

func newCtlProfile(name string, spec profile.Spec, tuples int, shift bool) (*ctlProfile, error) {
	// The spec's profile drifts around a base model with a seed-drawn
	// phase; the benchmark prices with the base itself so the oracle is
	// one fixed curve.
	d, ok := spec.New(1).(*profile.Drifting)
	if !ok {
		return nil, fmt.Errorf("profile %s is not a drifting profile", spec.Name)
	}
	scale := float64(spec.Tuples) / float64(tuples)
	p := &ctlProfile{
		name:   name,
		model:  scaleModel(d.Base(), scale),
		limits: core.Limits{Min: int(float64(spec.Limits.Min)/scale + 0.5), Max: int(float64(spec.Limits.Max) / scale)},
		b1:     spec.B1 / scale,
		scale:  scale,
		tuples: tuples,
		shift:  shift,
	}
	if p.limits.Min < 1 {
		p.limits.Min = 1
	}
	return p, nil
}

// controller builds the hybrid with wsbench's scaled parameterization.
func (p *ctlProfile) controller(seed int64) (core.Controller, error) {
	cfg := core.DefaultConfig()
	cfg.Limits = p.limits
	cfg.InitialSize = p.limits.Clamp(int(1000/p.scale + 0.5))
	cfg.B1 = p.b1
	cfg.DitherFactor = 25 / p.scale
	cfg.Seed = seed
	return core.NewHybrid(cfg)
}

// arm prepares srv for one run of the profile and returns the controller
// to hand to client.Run: the load starts clear, and on a shift profile
// moves to shiftLoad at the shiftAtObserve-th observation.
func (p *ctlProfile) arm(ctl core.Controller, srv *service.Server) core.Controller {
	srv.SetLoad(netsim.Load{}) // a shift run before this one left its load behind
	if !p.shift {
		return ctl
	}
	return &shiftCtl{Controller: ctl, srv: srv}
}

type shiftCtl struct {
	core.Controller
	srv *service.Server
	n   int
}

func (c *shiftCtl) Unwrap() core.Controller { return c.Controller }

func (c *shiftCtl) Observe(y float64) {
	c.Controller.Observe(y)
	if c.n++; c.n == shiftAtObserve {
		c.srv.SetLoad(shiftLoad)
	}
}

// oracleMS is the post-mortem optimum for a run that used sizes: the
// best fixed block size's expected total. On a shift profile it is the
// sum of the two phases' optima, split where the run's first
// shiftAtObserve blocks ended.
func (p *ctlProfile) oracleMS(sizes []int) float64 {
	if !p.shift {
		_, ms := p.model.OptimalFixedSize(p.tuples, p.limits, 1)
		return ms
	}
	before := 0
	for i := 0; i < len(sizes) && i < shiftAtObserve; i++ {
		before += sizes[i]
	}
	if before > p.tuples {
		before = p.tuples
	}
	_, ms1 := p.model.OptimalFixedSize(before, p.limits, 1)
	_, ms2 := p.model.Apply(shiftLoad).OptimalFixedSize(p.tuples-before, p.limits, 1)
	return ms1 + ms2
}

// settleBlocks is how many blocks a run took until its size stayed
// within settleBand of the oracle's size for the rest of the query.
func (p *ctlProfile) settleBlocks(sizes []int) int {
	opt, _ := p.model.OptimalFixedSize(p.tuples, p.limits, 1)
	lo, hi := float64(opt)*(1-settleBand), float64(opt)*(1+settleBand)
	settled := len(sizes)
	for i := len(sizes) - 1; i >= 0; i-- {
		if s := float64(sizes[i]); s < lo || s > hi {
			break
		}
		settled = i
	}
	return settled
}

// buildCtl starts one priced backend per distinct profile model and
// lists the jobs: every profile with ctlSeeds controller seeds.
func (st *stack) buildCtl() error {
	type lane struct {
		spec   profile.Spec
		table  string
		tuples int
		names  []string // profiles priced by this backend; "shift" reuses conf2.2's
	}
	lanes := []lane{
		{profile.Conf11(), "customer", tpch.CustomerCount(st.cfg.sf), []string{"conf1.1"}},
		{profile.Conf22(), "orders", tpch.OrdersCount(st.cfg.sf), []string{"conf2.2", "shift"}},
		{profile.Conf13(), "customer", tpch.CustomerCount(st.cfg.sf), []string{"conf1.3"}},
	}
	columns := map[string][]string{
		"customer": {"c_custkey", "c_acctbal"},
		"orders":   {"o_orderkey", "o_totalprice"},
	}
	for i, ln := range lanes {
		var tgt *target
		for _, name := range ln.names {
			p, err := newCtlProfile(name, ln.spec, ln.tuples, name == "shift")
			if err != nil {
				return err
			}
			if tgt == nil {
				// Every block is priced by the profile and never slept
				// (SleepScale stays 0).
				srv, err := st.addBackend(service.Config{Catalog: st.cat, CostModel: p.model, Seed: st.cfg.seed + int64(i)})
				if err != nil {
					return err
				}
				q := client.Query{Table: ln.table, Columns: columns[ln.table]}
				if tgt, err = st.addTarget(st.backends[len(st.backends)-1], q, srv); err != nil {
					return err
				}
			}
			for s := 0; s < ctlSeeds; s++ {
				st.jobs = append(st.jobs, job{tgt: tgt, prof: p, ctlSeed: st.cfg.seed*1000 + int64(s)})
			}
		}
	}
	return nil
}

// ctlOutcome is the cost-ratio pass's result.
type ctlOutcome struct {
	ratio  map[string]float64 // per profile: mean achieved ÷ oracle over the seeds
	mean   float64            // over the profiles
	settle float64            // mean settleBlocks over the static profiles' runs
}

// costRatioPass runs every job once, in list order, on the freshly built
// backends and scores each run against its oracle. Order and freshness
// matter: a backend draws each session's delay noise from the session's
// ordinal, so the same seed reproduces the same priced costs only for
// the same sequence of sessions. The timed trials then loop the same
// list; their wall-clock is measured, their cost is not.
func (st *stack) costRatioPass(ctx context.Context) error {
	sum := map[string]float64{}
	runs := map[string]int{}
	settle, settleRuns := 0, 0
	for _, j := range st.jobs {
		h, err := j.prof.controller(j.ctlSeed)
		if err != nil {
			return err
		}
		res, err := j.tgt.client.Run(ctx, j.tgt.query, j.prof.arm(h, j.tgt.srv), client.MetricPerTuple, true)
		if err != nil {
			return fmt.Errorf("cost-ratio pass, %s: %w", j.prof.name, err)
		}
		if res.Tuples != j.prof.tuples {
			return fmt.Errorf("cost-ratio pass, %s: delivered %d tuples, relation has %d", j.prof.name, res.Tuples, j.prof.tuples)
		}
		sum[j.prof.name] += res.SimulatedMS / j.prof.oracleMS(res.Sizes)
		runs[j.prof.name]++
		if !j.prof.shift {
			settle += j.prof.settleBlocks(res.Sizes)
			settleRuns++
		}
	}
	out := ctlOutcome{ratio: map[string]float64{}}
	for _, name := range ctlProfileNames { // fixed order: float sums must repeat exactly
		out.ratio[name] = sum[name] / float64(runs[name])
		out.mean += out.ratio[name] / float64(len(ctlProfileNames))
	}
	out.settle = float64(settle) / float64(settleRuns)
	st.ctl = out
	return nil
}
