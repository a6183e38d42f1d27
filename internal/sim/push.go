package sim

import (
	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
)

// Pull-vs-push comparison on the simulation engine: the same link and
// server priced through both transports. The pull arm pays the full
// per-request overhead on every block; the push arm prices blocks with
// the derived netsim.CostModel.Push model, where only the residual
// per-frame overhead survives. Because everything else — per-tuple
// cost, knee, penalty, noise structure — is identical, any difference
// between the arms is the transport, which is exactly the
// counterfactual the push-vs-pull experiment reports
// (results/push-vs-pull.txt).

// PushComparison summarizes one pull-vs-push sweep over fixed block
// sizes on a single cost model.
type PushComparison struct {
	Profile string `json:"profile"`
	Tuples  int    `json:"tuples"`
	// PullSweep and PushSweep are the per-transport fixed-size sweeps
	// over the same size grid and seeds.
	PullSweep []SweepPoint `json:"pull_sweep"`
	PushSweep []SweepPoint `json:"push_sweep"`
	// PullOpt and PushOpt are each transport's post-mortem best fixed
	// size. The push optimum sits at (or below) the pull optimum: with
	// the per-request overhead gone there is nothing left for huge
	// blocks to amortize, so the knee penalty dominates sooner.
	PullOpt SweepPoint `json:"pull_opt"`
	PushOpt SweepPoint `json:"push_opt"`
	// EqualSizeSpeedup is mean pull time over mean push time at the
	// PULL arm's own optimum fixed size — the conservative headline
	// ratio (push is compared at the size that flatters pull).
	EqualSizeSpeedup float64 `json:"equal_size_speedup"`
	// OptimumSpeedup compares each transport at its own optimum.
	OptimumSpeedup float64 `json:"optimum_speedup"`
}

// ComparePushPull sweeps fixed block sizes over the model through both
// transports and reports the speedups. overheadMS <= 0 uses the default
// netsim.PushOverheadFrac share of the pull overhead; reps independent
// noisy runs are averaged per point, seeded from seed0 so the
// comparison is reproducible.
func ComparePushPull(name string, m netsim.CostModel, tuples int, sizes []int, reps int, seed0 int64, overheadMS float64) PushComparison {
	pushModel := m.Push(overheadMS)
	mkPull := func(seed int64) profile.Profile { return profile.New(name+"-pull", m, tuples, seed) }
	mkPush := func(seed int64) profile.Profile { return profile.New(name+"-push", pushModel, tuples, seed) }

	cmp := PushComparison{
		Profile:   name,
		Tuples:    tuples,
		PullSweep: FixedSweep(mkPull, tuples, sizes, reps, seed0),
		PushSweep: FixedSweep(mkPush, tuples, sizes, reps, seed0),
	}
	cmp.PullOpt = BestPoint(cmp.PullSweep)
	cmp.PushOpt = BestPoint(cmp.PushSweep)

	// Push priced at the size the pull arm would have chosen: the mean
	// push total at PullOpt.Size, read back out of the push sweep.
	pushAtPullOpt := cmp.PushOpt.MeanMS
	for _, p := range cmp.PushSweep {
		if p.Size == cmp.PullOpt.Size {
			pushAtPullOpt = p.MeanMS
		}
	}
	if pushAtPullOpt > 0 {
		cmp.EqualSizeSpeedup = cmp.PullOpt.MeanMS / pushAtPullOpt
	}
	if cmp.PushOpt.MeanMS > 0 {
		cmp.OptimumSpeedup = cmp.PullOpt.MeanMS / cmp.PushOpt.MeanMS
	}
	return cmp
}

// PushAdaptive runs the same freshly-built controller against the pull
// and push views of one model and returns both traces — the
// controller-in-the-loop counterpart of ComparePushPull. The push-side
// controller should settle on a smaller block size: the a/x term it
// amortizes by growing x has shrunk by 1/PushOverheadFrac.
func PushAdaptive(name string, m netsim.CostModel, mk func() core.Controller, tuples int, seed int64, overheadMS float64, opt Options) (pull, push Result) {
	pull = RunTuples(profile.New(name+"-pull", m, tuples, seed), mk(), tuples, opt)
	push = RunTuples(profile.New(name+"-push", m.Push(overheadMS), tuples, seed), mk(), tuples, opt)
	return pull, push
}

// MeanSize returns the tuple-weighted mean commanded block size of a
// run — the summary statistic the adaptive pull-vs-push contrast keys
// on (the final block is truncated, so raw Sizes are used as issued).
func MeanSize(r Result) float64 {
	if len(r.Sizes) == 0 {
		return 0
	}
	sum := 0
	for _, s := range r.Sizes {
		sum += s
	}
	return float64(sum) / float64(len(r.Sizes))
}
