package sim

import (
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
)

// wanPushModel is the high-RTT link the push transport targets (the
// shape of netsim's own wanModel pin): a second of per-request overhead
// over a cheap per-tuple cost, so at the pull optimum nearly half of
// every block's cost is the round-trip push removes.
func wanPushModel() netsim.CostModel {
	return netsim.CostModel{
		LatencyMS:     1040,
		PerTupleMS:    0.09,
		KneeTuples:    11000,
		PenaltyMS:     1e-4,
		LatencyJitter: 0.10,
		TupleJitter:   0.01,
	}
}

// lanPushModel is a conf2.x-shaped low-RTT link: little overhead to
// remove, so push barely moves the needle.
func lanPushModel() netsim.CostModel {
	return netsim.CostModel{
		LatencyMS:     60,
		PerTupleMS:    0.08,
		KneeTuples:    3500,
		PenaltyMS:     4e-3,
		LatencyJitter: 0.15,
		TupleJitter:   0.02,
	}
}

func pushSizes() []int { return []int{200, 500, 1000, 2000, 4000, 8000, 12000, 16000, 20000} }

// pushComparison is one pull-vs-push sweep over fixed block sizes on a
// single cost model: the same link and server priced through both
// transports, so any difference between the arms is the transport.
type pushComparison struct {
	// PullOpt and PushOpt are each transport's post-mortem best fixed
	// size.
	PullOpt, PushOpt SweepPoint
	// EqualSizeSpeedup is mean pull time over mean push time at the
	// pull arm's own optimum size — the conservative headline ratio.
	EqualSizeSpeedup float64
	// OptimumSpeedup compares each transport at its own optimum.
	OptimumSpeedup float64
}

// comparePushPull sweeps sizes over m through both transports, reps
// noisy runs per point seeded from seed0, with the default push overhead.
func comparePushPull(name string, m netsim.CostModel, tuples int, sizes []int, reps int, seed0 int64) pushComparison {
	mkPull := func(seed int64) profile.Profile { return profile.New(name+"-pull", m, tuples, seed) }
	mkPush := func(seed int64) profile.Profile { return profile.New(name+"-push", m.Push(0), tuples, seed) }
	pull := FixedSweep(mkPull, tuples, sizes, reps, seed0)
	push := FixedSweep(mkPush, tuples, sizes, reps, seed0)
	cmp := pushComparison{PullOpt: BestPoint(pull), PushOpt: BestPoint(push)}
	for _, p := range push {
		if p.Size == cmp.PullOpt.Size {
			cmp.EqualSizeSpeedup = cmp.PullOpt.MeanMS / p.MeanMS
		}
	}
	cmp.OptimumSpeedup = cmp.PullOpt.MeanMS / cmp.PushOpt.MeanMS
	return cmp
}

// TestComparePushPullWAN pins the headline claim on the high-RTT
// profile: at the pull arm's own optimum fixed size, push is at least
// 1.5x faster, and the push optimum sits at a strictly smaller size.
func TestComparePushPullWAN(t *testing.T) {
	cmp := comparePushPull("wan", wanPushModel(), 30_000, pushSizes(), 3, 17)
	if cmp.EqualSizeSpeedup < 1.5 {
		t.Fatalf("equal-size speedup = %.2f, want >= 1.5 on the WAN model", cmp.EqualSizeSpeedup)
	}
	if cmp.OptimumSpeedup < cmp.EqualSizeSpeedup {
		t.Fatalf("optimum speedup %.2f < equal-size speedup %.2f: push's own optimum must not be worse than pull's choice",
			cmp.OptimumSpeedup, cmp.EqualSizeSpeedup)
	}
	if cmp.PushOpt.Size >= cmp.PullOpt.Size {
		t.Fatalf("push optimum size %d >= pull optimum size %d: removing the per-request overhead must shrink the optimal block",
			cmp.PushOpt.Size, cmp.PullOpt.Size)
	}
	t.Logf("wan: pull opt %d tuples %.0fms, push opt %d tuples %.0fms, equal-size speedup %.2fx",
		cmp.PullOpt.Size, cmp.PullOpt.MeanMS, cmp.PushOpt.Size, cmp.PushOpt.MeanMS, cmp.EqualSizeSpeedup)
}

// TestComparePushPullLAN: on a low-RTT link push still wins (there is
// always some overhead to remove) but modestly — the contrast that
// shows the speedup really is the round-trip and not an artifact.
func TestComparePushPullLAN(t *testing.T) {
	cmp := comparePushPull("lan", lanPushModel(), 30_000, []int{200, 500, 1000, 2000, 3500, 5000}, 3, 23)
	if cmp.EqualSizeSpeedup < 1.0 {
		t.Fatalf("equal-size speedup = %.2f, want >= 1.0 (push never loses)", cmp.EqualSizeSpeedup)
	}
	wan := comparePushPull("wan", wanPushModel(), 30_000, pushSizes(), 3, 17)
	if cmp.EqualSizeSpeedup >= wan.EqualSizeSpeedup {
		t.Fatalf("LAN speedup %.2f >= WAN speedup %.2f: the win must scale with the overhead removed",
			cmp.EqualSizeSpeedup, wan.EqualSizeSpeedup)
	}
}

// TestPushAdaptiveConvergesSmaller puts a controller in the loop: the
// same hybrid configuration run against the pull and push views of the
// WAN link must settle on a visibly smaller mean block size under push,
// and must finish the transfer faster.
func TestPushAdaptiveConvergesSmaller(t *testing.T) {
	cfg := core.Config{
		InitialSize: 2000,
		Limits:      core.Limits{Min: 100, Max: 20000},
		B1:          2000, B2: 500,
		AvgHorizon: 2, CriterionWindow: 6, CriterionThreshold: 2,
	}
	mk := func() core.Controller {
		ctl, err := core.NewHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	pull, push := PushAdaptive("wan", wanPushModel(), mk, 60_000, 31, 0, Options{})
	if pull.Tuples != push.Tuples {
		t.Fatalf("arms transferred different volumes: pull %d, push %d", pull.Tuples, push.Tuples)
	}
	if push.TotalMS >= pull.TotalMS {
		t.Fatalf("adaptive push total %.0fms >= pull total %.0fms", push.TotalMS, pull.TotalMS)
	}
	mPull, mPush := MeanSize(pull), MeanSize(push)
	if mPush >= mPull {
		t.Fatalf("adaptive push mean size %.0f >= pull mean size %.0f: the controller should stop amortizing a vanished overhead",
			mPush, mPull)
	}
	t.Logf("adaptive wan: pull mean size %.0f total %.0fms; push mean size %.0f total %.0fms (%.2fx)",
		mPull, pull.TotalMS, mPush, push.TotalMS, pull.TotalMS/push.TotalMS)
}
