package netsim

import (
	"math/rand"
	"testing"

	"wsopt/internal/core"
)

func wanModel() CostModel {
	return CostModel{
		LatencyMS:  1040,
		PerTupleMS: 0.09,
		KneeTuples: 11000,
		PenaltyMS:  2.5e-5,
	}
}

// TestPushRemovesPerBlockOverhead pins the derivation: per-tuple cost,
// knee and penalty survive; the fixed overhead collapses to the
// configured residual.
func TestPushRemovesPerBlockOverhead(t *testing.T) {
	m := wanModel()
	p := m.Push(0)
	if want := m.LatencyMS * PushOverheadFrac; p.LatencyMS != want {
		t.Fatalf("push overhead = %v, want %v", p.LatencyMS, want)
	}
	if p.PerTupleMS != m.PerTupleMS || p.KneeTuples != m.KneeTuples || p.PenaltyMS != m.PenaltyMS {
		t.Fatal("push model changed tuple/knee/penalty terms")
	}
	p2 := m.Push(12)
	if p2.LatencyMS != 12 {
		t.Fatalf("explicit overhead ignored: %v", p2.LatencyMS)
	}
	// Absolute jitter magnitude is preserved, not the coefficient.
	m.LatencyJitter = 0.2
	p3 := m.Push(0)
	got := p3.LatencyMS * p3.LatencyJitter
	if want := m.LatencyMS * m.LatencyJitter; !closeTo(got, want, 1e-9) {
		t.Fatalf("jitterMS = %v, want %v", got, want)
	}
}

// TestPushSpeedupGrowsWithRTT checks the headline relation of the
// push-vs-pull experiment: at equal block size, push wins by more on
// slower links, and on a WAN profile the win at the pull optimum's
// typical sizes clears the 1.5x acceptance bar.
func TestPushSpeedupGrowsWithRTT(t *testing.T) {
	const tuples, x = 100_000, 2000
	speedup := func(m CostModel) float64 {
		return m.ExpectedTotalMS(tuples, x) / m.Push(0).ExpectedTotalMS(tuples, x)
	}
	wan := wanModel()
	lan := wanModel()
	lan.LatencyMS = 30
	if sw, sl := speedup(wan), speedup(lan); sw <= sl {
		t.Fatalf("WAN speedup %.2f <= LAN speedup %.2f", sw, sl)
	}
	if s := speedup(wan); s < 1.5 {
		t.Fatalf("WAN speedup at %d tuples/block = %.2f, want >= 1.5", x, s)
	}
}

// TestPushOptimumSmaller: with the a/x amortization term gone, the
// optimal fixed block size must move left — the knee penalty is all
// that remains to trade against, so small blocks stop being penalized.
func TestPushOptimumSmaller(t *testing.T) {
	m := wanModel()
	limits := core.Limits{Min: 100, Max: 20000}
	pullOpt, _ := m.OptimalFixedSize(200_000, limits, 50)
	pushOpt, _ := m.Push(0).OptimalFixedSize(200_000, limits, 50)
	if pushOpt >= pullOpt {
		t.Fatalf("push optimum %d not smaller than pull optimum %d", pushOpt, pullOpt)
	}
}

// TestPushBlockMSNoise: the stochastic path must respect the derived
// deterministic skeleton (mean close to expectation).
func TestPushBlockMSNoise(t *testing.T) {
	m := wanModel()
	m.LatencyJitter = 0.1
	p := m.Push(0)
	rng := rand.New(rand.NewSource(7))
	const x, n = 1000, 4000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.BlockMS(x, rng)
	}
	mean, want := sum/n, p.ExpectedBlockMS(x)
	if !closeTo(mean, want, 0.05*want) {
		t.Fatalf("mean noisy cost %v too far from expected %v", mean, want)
	}
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
