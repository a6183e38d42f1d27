package profile

import (
	"math"
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
)

func testModel() netsim.CostModel {
	return netsim.CostModel{LatencyMS: 100, PerTupleMS: 0.1, LatencyJitter: 0.1}
}

func TestFixedProfile(t *testing.T) {
	p := New("test", testModel(), 1000, 1)
	if p.Name() != "test" || p.Tuples() != 1000 {
		t.Fatal("metadata wrong")
	}
	if p.Model().LatencyMS != 100 {
		t.Fatal("model not exposed")
	}
	a := New("test", testModel(), 1000, 7)
	b := New("test", testModel(), 1000, 7)
	for i := 0; i < 50; i++ {
		if a.BlockMS(500) != b.BlockMS(500) {
			t.Fatal("same seed should reproduce the noise stream")
		}
	}
}

func TestSwitchingProfile(t *testing.T) {
	m1 := netsim.CostModel{LatencyMS: 10, PerTupleMS: 0.1}
	m2 := netsim.CostModel{LatencyMS: 10000, PerTupleMS: 0.1}
	s, err := NewSwitching("sw", []Segment{
		{Model: m1, Blocks: 3},
		{Model: m2, Blocks: 0},
	}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if s.Model().LatencyMS != 10 {
			t.Fatalf("block %d should use the first segment", i)
		}
		s.BlockMS(100)
	}
	if s.Model().LatencyMS != 10000 {
		t.Fatal("after 3 blocks the second segment must be active")
	}
	// The final zero-duration segment lasts forever.
	for i := 0; i < 10; i++ {
		s.BlockMS(100)
	}
	if s.Model().LatencyMS != 10000 {
		t.Fatal("final segment should persist")
	}
	if s.Block() != 13 {
		t.Fatalf("block counter = %d, want 13", s.Block())
	}
}

func TestSwitchingValidation(t *testing.T) {
	if _, err := NewSwitching("x", nil, 10, 1); err == nil {
		t.Error("empty schedule should be rejected")
	}
	if _, err := NewSwitching("x", []Segment{
		{Model: testModel(), Blocks: 0},
		{Model: testModel(), Blocks: 5},
	}, 10, 1); err == nil {
		t.Error("zero-duration non-final segment should be rejected")
	}
}

func TestDriftingProfileOscillates(t *testing.T) {
	base := netsim.CostModel{LatencyMS: 100, PerTupleMS: 0.1, KneeTuples: 5000, PenaltyMS: 1e-4}
	d, err := NewDrifting("d", base, Drift{KneeAmp: 0.3, PeriodMS: 10000, Phase: math.Pi / 2}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := d.Model().KneeTuples
	if math.Abs(first-5000*1.3) > 1 {
		t.Fatalf("phase π/2 should start at the knee peak, got %g", first)
	}
	// Consume simulated time: the knee must move.
	minK, maxK := first, first
	for i := 0; i < 200; i++ {
		d.BlockMS(1000)
		k := d.Model().KneeTuples
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	if maxK-minK < 0.5*5000*0.3 {
		t.Fatalf("knee did not oscillate: range [%g, %g]", minK, maxK)
	}
	if d.Base().KneeTuples != 5000 {
		t.Fatal("Base() should return the unmodulated model")
	}
}

func TestDriftingRandomPhasePerSeed(t *testing.T) {
	base := netsim.CostModel{LatencyMS: 100, PerTupleMS: 0.1, KneeTuples: 5000, PenaltyMS: 1e-4}
	d1, _ := NewDrifting("d", base, Drift{KneeAmp: 0.3, PeriodMS: 10000}, 1000, 1)
	d2, _ := NewDrifting("d", base, Drift{KneeAmp: 0.3, PeriodMS: 10000}, 1000, 2)
	if d1.Model().KneeTuples == d2.Model().KneeTuples {
		t.Fatal("different seeds should draw different phases")
	}
	d3, _ := NewDrifting("d", base, Drift{KneeAmp: 0.3, PeriodMS: 10000}, 1000, 1)
	if d1.Model().KneeTuples != d3.Model().KneeTuples {
		t.Fatal("same seed should draw the same phase")
	}
}

func TestDriftingValidation(t *testing.T) {
	base := testModel()
	if _, err := NewDrifting("d", base, Drift{}, 10, 1); err == nil {
		t.Error("zero amplitudes should be rejected")
	}
	if _, err := NewDrifting("d", base, Drift{LatencyAmp: 1.5, PeriodMS: 10}, 10, 1); err == nil {
		t.Error("amplitude >= 1 should be rejected")
	}
	if _, err := NewDrifting("d", base, Drift{LatencyAmp: 0.1}, 10, 1); err == nil {
		t.Error("zero period should be rejected")
	}
}

func TestOptimalFixedSizeHelper(t *testing.T) {
	p := New("t", netsim.CostModel{LatencyMS: 100, PerTupleMS: 0.1, KneeTuples: 5000, PenaltyMS: 1e-4}, 150000, 1)
	size, total := OptimalFixedSize(p, core.Limits{Min: 100, Max: 20000}, 50)
	if size < 4000 || size > 6500 {
		t.Fatalf("optimum = %d, want near the knee", size)
	}
	if total <= 0 {
		t.Fatal("total must be positive")
	}
}

func TestPaperSpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != 5 {
		t.Fatalf("want 5 configurations, got %d", len(specs))
	}
	wantNames := []string{"conf1.1", "conf1.2", "conf1.3", "conf2.1", "conf2.2"}
	for i, s := range specs {
		if s.Name != wantNames[i] {
			t.Fatalf("spec %d = %s, want %s", i, s.Name, wantNames[i])
		}
		if s.Tuples <= 0 || s.B1 <= 0 || !s.Limits.Valid() {
			t.Fatalf("%s: malformed spec", s.Name)
		}
		p := s.New(1)
		if p == nil || p.Tuples() != s.Tuples {
			t.Fatalf("%s: profile construction broken", s.Name)
		}
		if ms := p.BlockMS(1000); ms <= 0 {
			t.Fatalf("%s: non-positive block cost", s.Name)
		}
	}
	if _, err := SpecByName("conf2.2"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("conf9.9"); err == nil {
		t.Fatal("unknown configuration should error")
	}
}

func TestPaperSpecLimits(t *testing.T) {
	c21, _ := SpecByName("conf2.1")
	if c21.Limits.Max != 7000 {
		t.Fatalf("conf2.1 upper limit = %d, want 7000 (Section III-B.2)", c21.Limits.Max)
	}
	c12, _ := SpecByName("conf1.2")
	if c12.B1 != 1200 {
		t.Fatalf("conf1.2 b1 = %g, want 1200", c12.B1)
	}
	c11, _ := SpecByName("conf1.1")
	if c11.B1 != 2000 || c11.Limits.Min != 100 || c11.Limits.Max != 20000 {
		t.Fatal("conf1.1 parameters do not match the paper")
	}
	if c11.Tuples != CustomerTuples {
		t.Fatal("conf1.1 must scan Customer")
	}
	c22, _ := SpecByName("conf2.2")
	if c22.Tuples != OrdersTuples {
		t.Fatal("conf2.2 must scan the 3x larger Orders result")
	}
}

// TestPaperOptimaMatch verifies the calibrated profiles put the optimum
// where the paper reports it.
func TestPaperOptimaMatch(t *testing.T) {
	cases := []struct {
		spec   Spec
		lo, hi int
	}{
		{Conf11(), 15000, 20000}, // at or near the upper limit
		{Conf12(), 15000, 20000}, // upper limit
		{Conf13(), 12000, 17000}, // shifted a little left
		{Conf21(), 1300, 2600},   // interior ~2K
		{Conf22(), 6800, 8300},   // interior ~7.5K
	}
	for _, c := range cases {
		p := c.spec.New(1)
		base := p.Model()
		if d, ok := p.(*Drifting); ok {
			// Judge the unmodulated model: the instantaneous one sits at a
			// random drift phase by design.
			base = d.Base()
		}
		opt, _ := base.OptimalFixedSize(c.spec.Tuples, c.spec.Limits, 50)
		if opt < c.lo || opt > c.hi {
			t.Errorf("%s: optimum %d outside paper range [%d, %d]", c.spec.Name, opt, c.lo, c.hi)
		}
	}
}

func TestFig1OptimaShiftLeftWithJobs(t *testing.T) {
	limits := core.Limits{Min: 100, Max: 10000}
	opts := map[int]int{}
	for _, jobs := range []int{0, 1, 2, 5, 10} {
		opt, _ := Fig1Model(jobs).OptimalFixedSize(CustomerTuples, limits, 50)
		opts[jobs] = opt
	}
	// Paper: 1 job -> 10K, 2 jobs -> 9K, 5 jobs -> 8K.
	if opts[1] < 9500 {
		t.Errorf("1 job optimum = %d, want ~10000", opts[1])
	}
	if opts[2] < 8500 || opts[2] > 9700 {
		t.Errorf("2 jobs optimum = %d, want ~9000", opts[2])
	}
	if opts[5] < 7000 || opts[5] > 8800 {
		// The deterministic ripple can pull the discrete argmin into a
		// nearby trough, hence the generous band around the paper's 8K.
		t.Errorf("5 jobs optimum = %d, want ~8000", opts[5])
	}
	if !(opts[10] < opts[5] && opts[5] < opts[2] && opts[2] <= opts[1]) {
		t.Errorf("optima should shift left with jobs: %v", opts)
	}
}

func TestFig1KneeInterpolation(t *testing.T) {
	// Interpolated job counts must lie between their neighbours.
	k3 := fig1Knee(3)
	if k3 >= fig1Knee(2) || k3 <= fig1Knee(5) {
		t.Fatalf("knee(3) = %g not between knee(2) = %g and knee(5) = %g", k3, fig1Knee(2), fig1Knee(5))
	}
	if fig1Knee(-1) != fig1Knee(0) {
		t.Fatal("below-range job counts should clamp")
	}
	if fig1Knee(50) != fig1Knee(10) {
		t.Fatal("above-range job counts should clamp")
	}
}

func TestFig2bOrderOfMagnitudeEffect(t *testing.T) {
	// The paper's strongest motivation: the 2-query optimum priced under
	// 3-query load is dramatically (close to an order of magnitude) worse
	// than the 3-query optimum.
	limits := core.Limits{Min: 100, Max: 10000}
	m2, m3 := Fig2bModel(2), Fig2bModel(3)
	opt2, _ := m2.OptimalFixedSize(CustomerTuples, limits, 50)
	_, best3 := m3.OptimalFixedSize(CustomerTuples, limits, 50)
	at2under3 := m3.ExpectedTotalMS(CustomerTuples, opt2)
	if ratio := at2under3 / best3; ratio < 5 {
		t.Errorf("stale-optimum ratio = %.1f, want >= 5 (paper: order of magnitude)", ratio)
	}
}

func TestFig2aDegradationWithQueries(t *testing.T) {
	limits := core.Limits{Min: 100, Max: 10000}
	_, t1 := Fig2aModel(1).OptimalFixedSize(CustomerTuples, limits, 50)
	_, t2 := Fig2aModel(2).OptimalFixedSize(CustomerTuples, limits, 50)
	if t2 <= t1 {
		t.Fatal("two concurrent queries must be slower even at their own optimum")
	}
}

func TestFig8Segments(t *testing.T) {
	segs := Fig8Segments(3)
	if len(segs) != 4 {
		t.Fatalf("want 4 segments, got %d", len(segs))
	}
	for i := 0; i < 3; i++ {
		if segs[i].Blocks != 300 {
			t.Fatalf("segment %d duration = %d blocks, want 100 steps x 3", i, segs[i].Blocks)
		}
	}
	if segs[3].Blocks != 0 {
		t.Fatal("final segment must be open-ended")
	}
	p, err := Fig8Profile(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() == "" {
		t.Fatal("profile should be named")
	}
}
