package sim

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/regulator"
)

// This file simulates the *coupled* control problem: N client-side
// block-size controllers pulling from one shared service whose cost
// model degrades with every admitted session, while a server-side SLO
// regulator meters how many of those clients are admitted at all. Both
// loops actuate concurrently — the clients chase the per-tuple optimum,
// the regulator chases a p95 block-time setpoint — and the suite's job
// is to prove they reach an accommodation instead of fighting in a
// limit cycle (the failure mode Arslan & Kosar document for stacked
// tuning loops). Everything is seeded and clocked synthetically, so a
// scenario run is bit-identical across repetitions.

// Coupling scales the shared service's cost model with the number of
// admitted sessions — the continuous analogue of netsim.Load.Apply,
// whose integer Jobs/Queries knobs are too coarse-grained to place a
// scenario's sustainable concurrency precisely.
type Coupling struct {
	// LatencyPerSession inflates the per-request overhead fractionally
	// per extra admitted session.
	LatencyPerSession float64
	// PerTuplePerSession inflates the per-tuple cost fractionally per
	// extra admitted session.
	PerTuplePerSession float64
	// KneeShrinkPerSession pulls the buffering knee left fractionally per
	// extra admitted session.
	KneeShrinkPerSession float64
}

// Apply derives the cost model observed while admitted sessions share
// the service.
func (c Coupling) Apply(m netsim.CostModel, admitted int) netsim.CostModel {
	others := float64(admitted - 1)
	if others < 0 {
		others = 0
	}
	out := m
	out.LatencyMS *= 1 + c.LatencyPerSession*others
	out.PerTupleMS *= 1 + c.PerTuplePerSession*others
	if out.KneeTuples > 0 && c.KneeShrinkPerSession > 0 {
		out.KneeTuples /= 1 + c.KneeShrinkPerSession*others
	}
	return out
}

// CoupledScenario is one coupled-loop experiment: a client population,
// a shared cost model with per-session degradation, and a server-side
// regulator parameterization.
type CoupledScenario struct {
	Name string
	// Base is the cost model seen by a lone session.
	Base netsim.CostModel
	// Coupling degrades Base per admitted session.
	Coupling Coupling
	// Clients is the population wanting admission; each runs its own
	// block-size controller.
	Clients int
	// SLOp95MS is the regulator's setpoint.
	SLOp95MS float64
	// Floor and Ceiling bound the admitted-session limit.
	Floor, Ceiling int
	// Mode selects the regulator law; Gain/Deadband override its defaults
	// when non-zero.
	Mode     regulator.Mode
	Gain     float64
	Deadband float64
	// Client parameterizes each client's block-size controller; the zero
	// value uses defaultCoupledClient.
	Client core.Config
}

// defaultCoupledClient is the per-client block-size controller used by
// the scenarios: the paper's hybrid controller scaled down to the
// smaller block range the coupled experiments run in, so a run costs
// thousands of priced blocks rather than millions.
func defaultCoupledClient() core.Config {
	cfg := core.DefaultConfig()
	cfg.InitialSize = 600
	cfg.Limits = core.Limits{Min: 100, Max: 4000}
	cfg.B1 = 300
	cfg.DitherFactor = 20
	return cfg
}

// CoupledOptions tune one coupled-loop run.
type CoupledOptions struct {
	// Ticks is the number of regulator intervals simulated (default 140).
	Ticks int
	// RoundsPerTick is how many blocks each admitted client transfers per
	// regulator interval (default 8).
	RoundsPerTick int
	// Seed drives every random source in the run.
	Seed int64
	// OscAmp and OscSwings parameterize the sustained-oscillation
	// detector: late error swings of at least OscAmp·SLO amplitude, at
	// least OscSwings sign alternations (defaults 0.5 and 6).
	OscAmp    float64
	OscSwings int
}

// settleBand is the settling criterion: the fraction of the SLO the p95
// error must stay within. The limit is an integer actuator, so adjacent
// admitted counts quantize the reachable p95.
const settleBand = 0.35

func (o CoupledOptions) withDefaults() CoupledOptions {
	if o.Ticks <= 0 {
		o.Ticks = 140
	}
	if o.RoundsPerTick <= 0 {
		o.RoundsPerTick = 8
	}
	if o.OscAmp <= 0 {
		o.OscAmp = 0.5
	}
	if o.OscSwings <= 0 {
		o.OscSwings = 6
	}
	return o
}

// CoupledResult is the trace and stability verdict of one coupled run.
type CoupledResult struct {
	Scenario string  `json:"scenario"`
	Mode     string  `json:"mode"`
	Ticks    int     `json:"ticks"`
	Blocks   int     `json:"blocks"`
	Tuples   int     `json:"tuples"`
	SLOp95MS float64 `json:"slo_p95_ms"`

	// Per-tick series (regulator cadence).
	P95s      []float64 `json:"-"`
	Errors    []float64 `json:"-"`
	Limits    []int     `json:"-"`
	Pressures []float64 `json:"-"`

	// FinalLimit is the admitted-session ceiling after the last tick;
	// MeanAdmitted averages the population actually admitted per tick.
	FinalLimit   int     `json:"final_limit"`
	MeanAdmitted float64 `json:"mean_admitted"`

	// SettlingTick is the first tick from which the p95 error stayed
	// within ±settleBand·SLO, -1 when it never settled.
	SettlingTick int `json:"settling_tick"`
	// OvershootFrac is the worst |p95−SLO|/SLO excursion after the loop
	// first entered the settle band.
	OvershootFrac float64 `json:"overshoot_frac"`
	// Oscillating reports a sustained late limit cycle in the error.
	Oscillating bool `json:"oscillating"`
	// WithinSLOFrac is the fraction of second-half ticks whose p95 was at
	// or below SLO·(1+settleBand).
	WithinSLOFrac float64 `json:"within_slo_frac"`
}

// RunCoupled executes one coupled-loop scenario: every tick, the first
// limit-many clients each transfer RoundsPerTick blocks priced by the
// coupled cost model, then the regulator reads the tick's p95 block time
// and commands the next tick's limit. The run is a pure function of
// (scenario, options).
func RunCoupled(sc CoupledScenario, opt CoupledOptions) CoupledResult {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))

	clientCfg := sc.Client
	if clientCfg.InitialSize == 0 {
		clientCfg = defaultCoupledClient()
	}
	clients := make([]core.Controller, sc.Clients)
	for i := range clients {
		cfg := clientCfg
		cfg.Seed = opt.Seed + int64(i+1)*31
		ctl, err := core.NewHybrid(cfg)
		if err != nil {
			panic(err) // scenario misconfiguration, not a runtime condition
		}
		clients[i] = ctl
	}

	// A synthetic clock: the regulator never touches the wall clock, so
	// trajectories replay bit-identically.
	tick := 0
	regCfg := regulator.Config{
		SLOp95MS: sc.SLOp95MS,
		Mode:     sc.Mode,
		Gain:     sc.Gain,
		Deadband: sc.Deadband,
		Floor:    sc.Floor,
		Ceiling:  sc.Ceiling,
		Seed:     opt.Seed,
		Now: func() time.Time {
			tick++
			return time.Unix(0, 0).Add(time.Duration(tick) * time.Second)
		},
	}
	reg, err := regulator.New(regCfg)
	if err != nil {
		panic(err)
	}

	res := CoupledResult{
		Scenario: sc.Name,
		Mode:     sc.Mode.String(),
		Ticks:    opt.Ticks,
		SLOp95MS: sc.SLOp95MS,
	}
	limit := reg.Limit()
	sumAdmitted := 0.0
	window := make([]float64, 0, sc.Clients*opt.RoundsPerTick)
	for t := 0; t < opt.Ticks; t++ {
		admitted := limit
		if admitted > len(clients) {
			admitted = len(clients)
		}
		sumAdmitted += float64(admitted)
		model := sc.Coupling.Apply(sc.Base, admitted)
		window = window[:0]
		for round := 0; round < opt.RoundsPerTick; round++ {
			for i := 0; i < admitted; i++ {
				size := clients[i].Size()
				if size < 1 {
					size = 1
				}
				ms := model.BlockMS(size, rng)
				clients[i].Observe(ms / float64(size))
				window = append(window, ms)
				res.Blocks++
				res.Tuples += size
			}
		}
		d := reg.Step(quantile(window, 0.95), len(window) > 0)
		limit = d.Limit
		res.P95s = append(res.P95s, d.P95MS)
		res.Errors = append(res.Errors, d.ErrorMS)
		res.Limits = append(res.Limits, d.Limit)
		res.Pressures = append(res.Pressures, d.Pressure)
	}

	res.FinalLimit = limit
	res.MeanAdmitted = sumAdmitted / float64(opt.Ticks)
	band := settleBand * sc.SLOp95MS
	res.SettlingTick = regulator.SettlingIndex(res.Errors, band)
	res.OvershootFrac = regulator.Overshoot(res.P95s, sc.SLOp95MS, band)
	res.Oscillating = regulator.Oscillating(res.Errors, opt.OscAmp*sc.SLOp95MS, opt.OscSwings)
	half := res.P95s[len(res.P95s)/2:]
	within := 0
	for _, p := range half {
		if p <= sc.SLOp95MS*(1+settleBand) {
			within++
		}
	}
	res.WithinSLOFrac = float64(within) / float64(len(half))
	return res
}

// quantile returns the q-quantile of xs by nearest-rank on a sorted
// copy; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// CoupledScenarios returns the reference coupled-loop family. Each
// member binds the system a different way, so together they exercise
// the regulator across its whole actuation range:
//
//   - bandwidth-bound: cheap requests and ample capacity — the SLO is
//     loose, the regulator should park at the ceiling and stay there;
//   - latency-bound: expensive requests near the setpoint — the
//     regulator must shave a few sessions and hold a mid-range limit;
//   - overload-bound: a population far past sustainable concurrency —
//     the regulator must shed most of it and defend the SLO from above.
func CoupledScenarios() []CoupledScenario {
	return []CoupledScenario{
		{
			Name: "bandwidth-bound",
			Base: netsim.CostModel{
				LatencyMS: 6, PerTupleMS: 0.004,
				KneeTuples: 3500, PenaltyMS: 1e-5,
				LatencyJitter: 0.08, TupleJitter: 0.03,
			},
			Coupling: Coupling{LatencyPerSession: 0.04, PerTuplePerSession: 0.02},
			Clients:  8,
			SLOp95MS: 220,
			Floor:    1,
			Ceiling:  8,
		},
		{
			Name: "latency-bound",
			Base: netsim.CostModel{
				LatencyMS: 70, PerTupleMS: 0.01,
				KneeTuples: 3500, PenaltyMS: 2e-5,
				LatencyJitter: 0.06, TupleJitter: 0.03,
			},
			Coupling: Coupling{LatencyPerSession: 0.10, PerTuplePerSession: 0.05},
			Clients:  10,
			SLOp95MS: 160,
			Floor:    1,
			Ceiling:  10,
		},
		{
			Name: "overload-bound",
			Base: netsim.CostModel{
				LatencyMS: 40, PerTupleMS: 0.012,
				KneeTuples: 3000, PenaltyMS: 3e-5,
				LatencyJitter: 0.08, TupleJitter: 0.03,
				SpikeProb: 0.01, SpikeMS: 30,
			},
			Coupling: Coupling{
				LatencyPerSession:    0.22,
				PerTuplePerSession:   0.12,
				KneeShrinkPerSession: 0.08,
			},
			Clients:  12,
			SLOp95MS: 130,
			Floor:    1,
			Ceiling:  12,
			// The sustainable admitted count is small here, so adjacent
			// integer limits quantize the reachable p95 coarsely; a wider
			// deadband keeps the integer actuator from chattering between
			// them.
			Deadband: 0.25,
		},
	}
}
