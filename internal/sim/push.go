package sim

import (
	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
)

// PushAdaptive runs the same freshly-built controller against the pull
// and push views of one model and returns both traces: the same link and
// server priced through both transports, so any difference between the
// traces is the transport. The pull arm pays the full
// per-request overhead on every block; the push arm prices blocks with
// the derived netsim.CostModel.Push model, where only the residual
// per-frame overhead survives. The push-side controller should settle on
// a smaller block size: the a/x term it amortizes by growing x has shrunk
// by 1/PushOverheadFrac.
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
