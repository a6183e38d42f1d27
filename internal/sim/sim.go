// Package sim is the discrete-event simulation engine of the
// reproduction, the functional equivalent of the MATLAB engine the paper
// built "on the basis of the profiles obtained by real evaluation
// experiments" (Section III-C). It executes a block-size controller
// against a response-time profile, block by block, and records the
// trajectory and the aggregate cost; replicated runs with distinct seeds
// provide the averages the paper plots.
package sim

import (
	"math"

	"wsopt/internal/core"
	"wsopt/internal/profile"
	"wsopt/internal/stats"
)

// Metric selects the feedback signal fed to the controller.
type Metric int

const (
	// MetricPerTuple feeds the controller the per-tuple cost of each
	// block (block time divided by block size). This is the paper's
	// "equivalently, the per tuple cost in time units" and the only
	// objective consistent across block sizes; it is the default.
	MetricPerTuple Metric = iota
	// MetricPerBlock feeds the raw block response time, mostly useful for
	// demonstrating why it is the wrong signal.
	MetricPerBlock
)

// Options tune a simulation run. The zero value is usable.
type Options struct {
	// Metric selects the controller feedback (default per-tuple).
	Metric Metric
	// MaxBlocks caps a run as a safety net against controllers stuck on
	// tiny blocks (default 5,000,000).
	MaxBlocks int
}

func (o Options) maxBlocks() int {
	if o.MaxBlocks > 0 {
		return o.MaxBlocks
	}
	return 5_000_000
}

// Result is the trace of one simulated query execution.
type Result struct {
	// Controller and Profile identify the run in reports.
	Controller string
	Profile    string
	// TotalMS is the aggregate response time of the whole transfer.
	TotalMS float64
	// Blocks is the number of block requests issued.
	Blocks int
	// Tuples is the number of tuples transferred.
	Tuples int
	// Sizes[i] is the block size commanded for block i.
	Sizes []int
	// BlockMS[i] is the measured response time of block i.
	BlockMS []float64
}

// StepSizes downsamples the per-block trajectory to one entry per
// adaptivity step (the controller changes its decision only every
// avgHorizon blocks), which is the x-axis the paper's figures use.
func (r *Result) StepSizes(avgHorizon int) []int {
	if avgHorizon < 1 {
		avgHorizon = 1
	}
	var out []int
	for i := 0; i < len(r.Sizes); i += avgHorizon {
		out = append(out, r.Sizes[i])
	}
	return out
}

// RunTuples simulates transferring exactly tuples rows: the controller
// picks each block's size, the profile prices it, and the controller
// observes the configured metric. The final block is truncated to the
// remaining rows.
func RunTuples(p profile.Profile, ctl core.Controller, tuples int, opt Options) Result {
	res := Result{Controller: ctl.Name(), Profile: p.Name()}
	res.run(p, ctl, opt.Metric, tuples, opt.maxBlocks(), nil, nil)
	return res
}

// RunBlocks simulates a fixed number of block transfers regardless of the
// tuple budget — the paper's long-lived trajectory experiments (Figs. 4–8
// plot adaptivity steps, not completed result sets).
func RunBlocks(p profile.Profile, ctl core.Controller, blocks int, opt Options) Result {
	res := Result{Controller: ctl.Name(), Profile: p.Name()}
	res.run(p, ctl, opt.Metric, math.MaxInt, blocks, nil, nil)
	return res
}

// run is the simulator's one block loop. Until tuples tuples or blocks
// blocks have been transferred, the controller picks a size, the profile
// prices the block — truncated to the tuples that remain — and the
// controller observes metric m. before(i), when set, runs ahead of block i
// and may return another profile to price it and every later block (nil
// keeps the current one); after(i) runs once block i has been observed.
func (res *Result) run(p profile.Profile, ctl core.Controller, m Metric, tuples, blocks int, before func(i int) profile.Profile, after func(i int)) {
	for i := 0; res.Tuples < tuples && i < blocks; i++ {
		if before != nil {
			if next := before(i); next != nil {
				p = next
			}
		}
		size := max(ctl.Size(), 1)
		take := min(size, tuples-res.Tuples)
		ms := p.BlockMS(take)
		res.TotalMS += ms
		res.Blocks++
		res.Tuples += take
		res.Sizes = append(res.Sizes, size)
		res.BlockMS = append(res.BlockMS, ms)
		ctl.Observe(feedback(m, ms, take))
		if after != nil {
			after(i)
		}
	}
}

func feedback(m Metric, blockMS float64, size int) float64 {
	if m == MetricPerBlock {
		return blockMS
	}
	return blockMS / float64(size)
}

// Setup builds one independent replica: a fresh profile and a fresh
// controller sharing nothing with other replicas except configuration.
type Setup func(seed int64) (profile.Profile, core.Controller)

// Aggregate summarizes replicated runs of the same setup.
type Aggregate struct {
	Runs        int
	MeanTotalMS float64
	StdTotalMS  float64
	Totals      []float64
	// MeanStepSizes[i] is the mean commanded size at adaptivity step i
	// across the runs that reached that step — the paper's "average
	// decisions of the adaptive block configuration mechanisms".
	MeanStepSizes []float64
}

// ReplicateTuples runs n independent replicas of a tuple-budget run and
// aggregates them. avgHorizon is used to downsample trajectories to
// adaptivity steps.
func ReplicateTuples(n int, seed0 int64, mk Setup, tuples, avgHorizon int, opt Options) Aggregate {
	return replicate(n, seed0, mk, avgHorizon, func(p profile.Profile, ctl core.Controller) Result {
		return RunTuples(p, ctl, tuples, opt)
	})
}

// ReplicateBlocks runs n independent replicas of a block-count run and
// aggregates them.
func ReplicateBlocks(n int, seed0 int64, mk Setup, blocks, avgHorizon int, opt Options) Aggregate {
	return replicate(n, seed0, mk, avgHorizon, func(p profile.Profile, ctl core.Controller) Result {
		return RunBlocks(p, ctl, blocks, opt)
	})
}

func replicate(n int, seed0 int64, mk Setup, avgHorizon int, run func(profile.Profile, core.Controller) Result) Aggregate {
	results := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		results = append(results, run(mk(seed0+int64(i)*7919)))
	}
	return aggregate(results, avgHorizon)
}

func aggregate(results []Result, avgHorizon int) Aggregate {
	agg := Aggregate{Runs: len(results)}
	maxSteps := 0
	trajs := make([][]int, 0, len(results))
	for _, r := range results {
		agg.Totals = append(agg.Totals, r.TotalMS)
		t := r.StepSizes(avgHorizon)
		trajs = append(trajs, t)
		if len(t) > maxSteps {
			maxSteps = len(t)
		}
	}
	agg.MeanTotalMS = stats.Mean(agg.Totals)
	agg.StdTotalMS = stats.StdDev(agg.Totals)
	agg.MeanStepSizes = make([]float64, maxSteps)
	for i := 0; i < maxSteps; i++ {
		sum, cnt := 0.0, 0
		for _, t := range trajs {
			if i < len(t) {
				sum += float64(t[i])
				cnt++
			}
		}
		if cnt > 0 {
			agg.MeanStepSizes[i] = sum / float64(cnt)
		}
	}
	return agg
}

// SweepPoint is one fixed-block-size measurement of a profile sweep.
type SweepPoint struct {
	Size   int
	MeanMS float64
	StdMS  float64
}

// FixedSweep measures the mean total response time of fixed block sizes,
// the methodology behind Figs. 1–3, 6(a) and 7(a) and the post-mortem
// ground truth of Tables I–III: reps independent runs per candidate size.
func FixedSweep(mk func(seed int64) profile.Profile, tuples int, sizes []int, reps int, seed0 int64) []SweepPoint {
	out := make([]SweepPoint, 0, len(sizes))
	for si, size := range sizes {
		totals := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			p := mk(seed0 + int64(si)*104729 + int64(r)*7919)
			res := RunTuples(p, core.NewStatic(size), tuples, Options{})
			totals = append(totals, res.TotalMS)
		}
		m, s := stats.MeanStd(totals)
		out = append(out, SweepPoint{Size: size, MeanMS: m, StdMS: s})
	}
	return out
}

// BestPoint returns the sweep point with the lowest mean total time — the
// post-mortem optimum fixed size.
func BestPoint(points []SweepPoint) SweepPoint {
	best := SweepPoint{MeanMS: math.Inf(1)}
	for _, p := range points {
		if p.MeanMS < best.MeanMS {
			best = p
		}
	}
	return best
}

// SizeGrid returns candidate block sizes from lo to hi inclusive with the
// given step, for sweeps.
func SizeGrid(lo, hi, step int) []int {
	if step < 1 {
		step = 1
	}
	var out []int
	for x := lo; x <= hi; x += step {
		out = append(out, x)
	}
	if len(out) == 0 || out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}
