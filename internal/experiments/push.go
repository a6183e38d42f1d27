package experiments

import (
	"context"
	"fmt"
	"strconv"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/sim"
	"wsopt/internal/stats"
	"wsopt/internal/tpch"
)

func init() {
	register("push-vs-pull", "pull vs server-push transport on the high-RTT link: fixed-size grid over the live priced stack, adaptive arms on its simulation twin", pushVsPull)
}

// The sweep's fixed setting: the customer relation at SF 0.05 (7500
// tuples), three runs per cell, and a grid in paper-scale tuples (the
// 150K-customer result set) that is scaled down to the served relation
// together with the link, as liveModel does.
const (
	pushSF   = 0.05
	pushRuns = 3
)

var pushPaperSizes = []int{200, 500, 1000, 2000, 4000, 8000, 12000, 16000, 20000}

// pushLinkModel is the high-RTT reference link, the shape
// internal/netsim's push tests pin: a second of per-request overhead
// over a cheap per-tuple cost, with the knee forcing the pull optimum to
// a size where nearly half of every block's cost is the round-trip the
// push transport removes. (conf1.1 itself is per-tuple dominated at its
// optimum, so it cannot show the transport contrast.)
func pushLinkModel() netsim.CostModel {
	return netsim.CostModel{
		LatencyMS:     1040,
		PerTupleMS:    0.09,
		KneeTuples:    11000,
		PenaltyMS:     1e-4,
		LatencyJitter: 0.08,
		TupleJitter:   0.01,
	}
}

// scaleModel shrinks the cost model's tuple axis by the given factor so
// a smaller dataset reproduces the full-size block-count dynamics.
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

// pushVsPull measures how much of an optimized pull transfer is the
// per-block round-trip itself. Two priced stacks serve the same relation
// under the same link, except that the push one prices blocks with the
// derived push model (netsim.CostModel.Push: the per-request overhead
// replaced by the residual per-frame one) and is read through the push
// transport. A fixed-size grid locates each transport's optimum over
// the real client and HTTP; SimulatedMS is the modelled link, not the
// host's loopback, so the table is the same on every machine.
//
// The adaptive arms run on the simulation engine under the same two
// models. Over the live push transport a size decision reaches the
// server through the asynchronous credit channel, so which frame first
// carries it depends on scheduling and the total differs from run to
// run; live-validation is the evidence that the engine stands in for
// the stack.
func pushVsPull(opts Options) Report {
	opts = opts.withDefaults()
	cat := minidb.NewCatalog()
	if _, err := tpch.GenCustomer(cat, pushSF); err != nil {
		panic(err) // deterministic generation cannot fail
	}
	tuples := tpch.CustomerCount(pushSF)
	scale := float64(profile.CustomerTuples) / float64(tuples)
	model := scaleModel(pushLinkModel(), scale)
	pushModel := model.Push(0)

	pullC, _, stopPull := pricedStack(cat, model, opts.Seed)
	defer stopPull()
	pushC, pushSrv, stopPush := pricedStack(cat, pushModel, opts.Seed)
	defer stopPush()
	pushC.SetPush(client.PushConfig{Enabled: true})

	q := client.Query{Table: "customer", Columns: []string{"c_custkey", "c_acctbal"}}
	measure := func(c *client.Client, size int) float64 {
		totals := make([]float64, pushRuns)
		for r := range totals {
			res, err := c.Run(context.Background(), q, core.NewStatic(size), client.MetricPerTuple, true)
			if err != nil {
				panic(fmt.Sprintf("push-vs-pull: size %d: %v", size, err))
			}
			totals[r] = res.SimulatedMS
		}
		return stats.Mean(totals)
	}

	rep := Report{
		ID: "push-vs-pull",
		Title: fmt.Sprintf("pull vs push over the live priced stack: %d customers, link %s scaled 1/%g, push keeps %.0f%% of the per-request overhead",
			tuples, pushLinkModel(), scale, netsim.PushOverheadFrac*100),
		Columns: []string{"paper-scale size", "size", "pull s", "push s", "pull/push"},
	}
	type cell struct {
		paper      int
		pull, push float64
	}
	var pullOpt, pushOpt cell
	for i, ps := range pushPaperSizes {
		size := int(float64(ps)/scale + 0.5)
		c := cell{paper: ps, pull: measure(pullC, size), push: measure(pushC, size)}
		if i == 0 || c.pull < pullOpt.pull {
			pullOpt = c
		}
		if i == 0 || c.push < pushOpt.push {
			pushOpt = c
		}
		rep.Rows = append(rep.Rows, []string{
			strconv.Itoa(ps), strconv.Itoa(size), f1(c.pull / 1000), f1(c.push / 1000), f2(c.pull / c.push),
		})
	}
	if pushSrv.Stats().PushFramesSent == 0 {
		panic("push-vs-pull: the push arm sent no frame: it fell back to pull and measured only the pricing")
	}

	mkHybrid := func() core.Controller {
		cfg := core.DefaultConfig()
		cfg.Limits = core.Limits{Min: int(100/scale + 0.5), Max: int(20000 / scale)}
		cfg.InitialSize = cfg.Limits.Clamp(int(1000/scale + 0.5))
		cfg.B1 = 2000 / scale
		cfg.DitherFactor = 25 / scale
		cfg.Seed = opts.Seed
		return mustHybrid(cfg)
	}
	var pullS, pushS, pullSize, pushSize float64 // means over pushRuns
	for r := 0; r < pushRuns; r++ {
		pull, push := sim.PushAdaptive("high-rtt", model, mkHybrid, tuples, opts.Seed+int64(r), 0, sim.Options{})
		pullS += pull.TotalMS / 1000 / pushRuns
		pushS += push.TotalMS / 1000 / pushRuns
		pullSize += sim.MeanSize(pull) * scale / pushRuns
		pushSize += sim.MeanSize(push) * scale / pushRuns
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("pull optimum %d, push optimum %d paper-scale tuples", pullOpt.paper, pushOpt.paper),
		fmt.Sprintf("at the pull optimum push is %sx faster", f2(pullOpt.pull/pullOpt.push)),
		fmt.Sprintf("adaptive hybrid on the simulation twin: pull %s s at mean size %.0f, push %s s at mean size %.0f (paper-scale tuples)",
			f1(pullS), pullSize, f1(pushS), pushSize))
	return rep
}
