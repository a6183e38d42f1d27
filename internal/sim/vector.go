package sim

import (
	"math"
	"math/rand"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
)

// This file simulates the multi-dimensional transfer loop: a controller
// commands a vector (block size, streams, depth), the model prices one
// round — s concurrent blocks of x tuples with d-deep pipelining — and
// the controller observes the per-tuple cost. Three scenarios place the
// optimum in different dimensions, so a controller that only tunes the
// block size is structurally unable to reach it on two of them.

// VectorScenario is a named vector cost model whose optimum stresses a
// particular dimension.
type VectorScenario struct {
	Name string
	// Dominant is the dimension the optimum depends on most — the one a
	// size-only controller cannot exploit (DimSize for the degenerate
	// scenario where parallelism only hurts).
	Dominant core.Dim
	Model    netsim.VectorCostModel
}

// VectorScenarios returns the three reference scenarios:
//
//   - bandwidth-bound: cheap requests, expensive tuples, a service that
//     happily sustains many parallel streams — the optimum wants high
//     stream counts;
//   - latency-bound: expensive requests, cheap tuples, pipelining hides
//     most of the latency — the optimum wants a deep pipeline;
//   - server-load-bound: a loaded service that punishes any concurrency —
//     the optimum collapses to one stream, shallow pipeline, and only the
//     block size matters (the paper's original problem).
func VectorScenarios() []VectorScenario {
	return []VectorScenario{
		{
			Name:     "bandwidth-bound",
			Dominant: core.DimStreams,
			Model: netsim.VectorCostModel{
				Base: netsim.CostModel{
					LatencyMS: 40, PerTupleMS: 0.08,
					KneeTuples: 6000, PenaltyMS: 2e-5,
					LatencyJitter: 0.1, TupleJitter: 0.03,
				},
				StreamCap:       8,
				StreamPenaltyMS: 1.5,
				DepthHide:       0.15,
				DepthPenaltyMS:  3,
			},
		},
		{
			Name:     "latency-bound",
			Dominant: core.DimDepth,
			Model: netsim.VectorCostModel{
				Base: netsim.CostModel{
					LatencyMS: 320, PerTupleMS: 0.02,
					KneeTuples: 9000, PenaltyMS: 4e-5,
					LatencyJitter: 0.08, TupleJitter: 0.03,
				},
				StreamCap:       2,
				StreamPenaltyMS: 45,
				DepthHide:       0.8,
				DepthPenaltyMS:  4,
			},
		},
		{
			Name:     "server-load-bound",
			Dominant: core.DimSize,
			Model: netsim.VectorCostModel{
				Base: netsim.CostModel{
					LatencyMS: 60, PerTupleMS: 0.05,
					KneeTuples: 2500, PenaltyMS: 5e-4,
					LatencyJitter: 0.1, TupleJitter: 0.03,
				},
				StreamCap:       1,
				StreamPenaltyMS: 90,
				DepthHide:       0.05,
				DepthPenaltyMS:  40,
			},
		},
	}
}

// VectorOptions tune one simulated vector run.
type VectorOptions struct {
	// Rounds is how many transfer rounds to simulate (default 300).
	Rounds int
	// Seed drives the measurement noise.
	Seed int64
}

const (
	// vectorTolerance is the convergence band around the optimum per-tuple
	// cost: "within 5%".
	vectorTolerance = 0.05
	// vectorSustain is how many consecutive rounds must stay inside the
	// band to count as converged.
	vectorSustain = 3
	// vectorSizeStep is the ground-truth grid step over sizes; the grid
	// spans netsim.DefaultVectorLimits.
	vectorSizeStep = 100
)

// VectorResult is the trace and verdict of one simulated vector run.
type VectorResult struct {
	Controller string      `json:"controller"`
	Scenario   string      `json:"scenario"`
	Optimum    core.Vector `json:"optimum"`
	// OptimumPerTupleMS is the ground-truth minimum expected per-tuple
	// cost over the limited grid.
	OptimumPerTupleMS float64 `json:"optimum_per_tuple_ms"`
	// Final is the vector commanded after the last round.
	Final core.Vector `json:"final"`
	// FinalPerTupleMS is the expected (noise-free) per-tuple cost at Final.
	FinalPerTupleMS float64 `json:"final_per_tuple_ms"`
	// ConvergedRound is the first round from which the expected per-tuple
	// cost of the commanded vector stayed within vectorTolerance of the
	// optimum for vectorSustain consecutive rounds; -1 when that never
	// happened.
	ConvergedRound int `json:"converged_round"`
	// MeanPerTupleMS averages the expected per-tuple cost over all rounds
	// — the regret-style summary statistic.
	MeanPerTupleMS float64 `json:"mean_per_tuple_ms"`
	// Rounds is the number of simulated rounds.
	Rounds int `json:"rounds"`
}

// Converged reports whether the run reached the tolerance band at all.
func (r VectorResult) Converged() bool { return r.ConvergedRound > 0 }

// RunVector drives one controller through rounds of the scenario and
// measures convergence against the brute-forced ground truth. Any
// controller runs: one without a vector of its own commands its block
// size on one stream at depth 1 (core.VectorOf).
func RunVector(sc VectorScenario, ctl core.Controller, opt VectorOptions) VectorResult {
	if opt.Rounds <= 0 {
		opt.Rounds = 300
	}
	optVec, optY := sc.Model.OptimalVector(netsim.DefaultVectorLimits(), vectorSizeStep)
	res := VectorResult{
		Controller:        ctl.Name(),
		Scenario:          sc.Name,
		Optimum:           optVec,
		OptimumPerTupleMS: optY,
		ConvergedRound:    -1,
		Rounds:            opt.Rounds,
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	band := optY * (1 + vectorTolerance)
	inBand := 0
	sumExpected := 0.0
	for round := 1; round <= opt.Rounds; round++ {
		v := core.VectorOf(ctl)
		expected := sc.Model.ExpectedPerTupleMS(v)
		sumExpected += expected
		if expected <= band {
			inBand++
			if inBand >= vectorSustain && res.ConvergedRound < 0 {
				res.ConvergedRound = round - vectorSustain + 1
			}
		} else {
			inBand = 0
		}
		roundMS := sc.Model.RoundMS(v, rng)
		ctl.Observe(roundMS / float64(max(v.Size*v.Streams, 1)))
	}
	res.Final = core.VectorOf(ctl)
	res.FinalPerTupleMS = sc.Model.ExpectedPerTupleMS(res.Final)
	res.MeanPerTupleMS = sumExpected / float64(opt.Rounds)
	if math.IsInf(res.FinalPerTupleMS, 0) {
		res.FinalPerTupleMS = -1
	}
	return res
}
