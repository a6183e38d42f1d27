package core

import (
	"math"
	"testing"
)

// plainConfig returns a deterministic single-sample configuration for
// hand-computed dynamics tests: no averaging, no dither.
func plainConfig() Config {
	return Config{
		InitialSize:        1000,
		Limits:             Limits{Min: 1, Max: 1_000_000},
		B1:                 500,
		B2:                 10,
		DitherFactor:       0,
		AvgHorizon:         1,
		CriterionWindow:    5,
		CriterionThreshold: 1,
	}
}

func TestConstantFirstStepIncreasesByB1(t *testing.T) {
	c, err := NewConstant(plainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1000 {
		t.Fatalf("initial size = %d, want 1000", c.Size())
	}
	c.Observe(100)
	if c.Size() != 1500 {
		t.Fatalf("after first step size = %d, want 1000+b1 = 1500", c.Size())
	}
}

func TestConstantStepDirection(t *testing.T) {
	// Increase improved performance (y down) -> keep increasing.
	c, _ := NewConstant(plainConfig())
	c.Observe(100) // x: 1000 -> 1500
	c.Observe(80)  // Δy<0, Δx>0 -> sign -1 -> x += b1
	if c.Size() != 2000 {
		t.Fatalf("improvement should keep direction: size = %d, want 2000", c.Size())
	}
	// Increase degraded performance (y up) -> back off.
	c2, _ := NewConstant(plainConfig())
	c2.Observe(100) // x: 1000 -> 1500
	c2.Observe(130) // Δy>0, Δx>0 -> sign +1 -> x -= b1
	if c2.Size() != 1000 {
		t.Fatalf("degradation should flip direction: size = %d, want 1000", c2.Size())
	}
}

func TestConstantStepMagnitudeAlwaysB1(t *testing.T) {
	c, _ := NewConstant(plainConfig())
	c.Observe(100)
	prev := float64(c.Size())
	for i := 0; i < 50; i++ {
		y := 50 + 10*math.Sin(float64(i))
		c.Observe(y)
		cur := float64(c.Size())
		if d := math.Abs(cur - prev); d != 500 && cur != 1 && cur != 1_000_000 {
			t.Fatalf("step %d: |Δx| = %g, want exactly b1 = 500 (no dither)", i, d)
		}
		prev = cur
	}
}

func TestAdaptiveHandComputedStep(t *testing.T) {
	a, err := NewAdaptive(plainConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(100) // first step: 1000 -> 1500
	if a.Size() != 1500 {
		t.Fatalf("first step size = %d, want 1500", a.Size())
	}
	// Δy = -20, Δx = 500, y = 80: g = |10 * (-20/80) * 500| = 1250;
	// sign(Δy·Δx) = -1, so x = 1500 + 1250 = 2750.
	a.Observe(80)
	if a.Size() != 2750 {
		t.Fatalf("adaptive step size = %d, want 2750", a.Size())
	}
}

func TestAdaptiveGainShrinksNearFlatness(t *testing.T) {
	a, _ := NewAdaptive(plainConfig())
	a.Observe(100)
	a.Observe(99.9) // tiny relative change -> tiny step
	// g = |10 * (0.1/99.9) * 500| ~ 5.0
	if d := math.Abs(float64(a.Size()) - 1500); d > 6 {
		t.Fatalf("near-flat adaptive step moved by %g, want ~5", d)
	}
}

// vProfile is a deterministic V-shaped per-tuple cost with minimum at opt.
func vProfile(opt float64) func(x int) float64 {
	return func(x int) float64 { return math.Abs(float64(x)-opt)/1000 + 1 }
}

func drive(ctl Controller, f func(int) float64, steps int) {
	for i := 0; i < steps; i++ {
		ctl.Observe(f(ctl.Size()))
	}
}

func TestConstantOscillatesAroundOptimum(t *testing.T) {
	c, _ := NewConstant(plainConfig())
	f := vProfile(3000)
	drive(c, f, 40)
	// After convergence the controller saw-tooths within ~2*b1 of the
	// optimum.
	for i := 0; i < 10; i++ {
		if d := math.Abs(float64(c.Size()) - 3000); d > 1100 {
			t.Fatalf("oscillation strayed %g from optimum", d)
		}
		c.Observe(f(c.Size()))
	}
}

func TestHybridReachesSteadyStateOnVProfile(t *testing.T) {
	h, err := NewHybrid(plainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.InSteadyState() {
		t.Fatal("hybrid must start in the transient phase")
	}
	drive(h, vProfile(3000), 25)
	if !h.InSteadyState() {
		t.Fatal("hybrid failed to detect steady state while saw-toothing around the optimum")
	}
	if h.PhaseSwitches() < 1 {
		t.Fatal("phase switch count not recorded")
	}
	// Parked near the optimum (the saw-tooth center), with only small
	// adaptive wobble afterwards.
	if d := math.Abs(float64(h.Size()) - 3000); d > 600 {
		t.Fatalf("hybrid parked %g away from the optimum", d)
	}
}

func TestHybridParksAtSawtoothCenter(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	f := vProfile(3000)
	var lastSizes []int
	for i := 0; i < 60 && !h.InSteadyState(); i++ {
		lastSizes = append(lastSizes, h.Size())
		h.Observe(f(h.Size()))
	}
	if !h.InSteadyState() {
		t.Fatal("never reached steady state")
	}
	if len(lastSizes) < 5 {
		t.Fatal("reached steady state implausibly fast")
	}
	// The parked value should be strictly inside the oscillation range
	// rather than at one of its extremes.
	window := lastSizes[len(lastSizes)-5:]
	lo, hi := window[0], window[0]
	for _, v := range window {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	got := h.Size()
	if got < lo || got > hi {
		t.Fatalf("parked size %d outside recent oscillation [%d, %d]", got, lo, hi)
	}
}

func TestHybridConstantGainDuringTransient(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	h.Observe(100) // first step
	prev := h.Size()
	for i := 0; i < 4; i++ { // fewer than n' sign samples: must still be transient
		h.Observe(100 - float64(i)) // keeps improving -> consistent signs
		cur := h.Size()
		if d := int(math.Abs(float64(cur - prev))); d != 500 {
			t.Fatalf("transient step %d: |Δx| = %d, want b1 = 500", i, d)
		}
		if h.InSteadyState() {
			t.Fatal("consistent descent must not trigger steady state")
		}
		prev = cur
	}
}

func TestHybridEq6Criterion(t *testing.T) {
	cfg := plainConfig()
	cfg.Criterion = CriterionWindowedMean
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 6 needs 2n' history; it cannot fire before 10 adaptivity steps.
	f := vProfile(3000)
	for i := 0; i < 10; i++ {
		if h.InSteadyState() {
			t.Fatalf("Eq.6 fired after %d steps, needs at least 2n' = 10", i)
		}
		h.Observe(f(h.Size()))
	}
	drive(h, f, 30)
	if !h.InSteadyState() {
		t.Fatal("Eq.6 should eventually detect the saw-tooth")
	}
}

// Regression for the Eq. 6 default threshold's n'=1 edge case: the
// published fallback b1/(n'-1) divides by zero when CriterionWindow is 1.
// The implementation must clamp the denominator, not emit ±Inf or NaN —
// an infinite threshold would declare steady state on any history, a NaN
// one never.
func TestEq6ThresholdFallbackWindowOne(t *testing.T) {
	cfg := plainConfig()
	cfg.Criterion = CriterionWindowedMean
	cfg.CriterionWindow = 1
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := h.eq6Threshold()
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("eq6Threshold() = %g with CriterionWindow 1, want a finite positive fallback", got)
	}
	if got != cfg.B1 {
		t.Errorf("eq6Threshold() = %g, want b1 = %g (denominator clamped to 1)", got, cfg.B1)
	}
	// And the controller still works end to end with the degenerate window.
	drive(h, vProfile(3000), 40)
	if h.Steps() == 0 {
		t.Fatal("controller stalled")
	}
}

func TestHybridPeriodicReset(t *testing.T) {
	cfg := plainConfig()
	cfg.ResetPeriod = 12
	h, _ := NewHybrid(cfg)
	f := vProfile(3000)
	steady, steadyRun := 0, 0
	for i := 0; i < 120; i++ {
		h.Observe(f(h.Size()))
		if h.InSteadyState() {
			steady++
			steadyRun++
			// The period is counted from the phase transition: the
			// controller may never sit in steady state longer than
			// ResetPeriod consecutive steps.
			if steadyRun > cfg.ResetPeriod {
				t.Fatalf("step %d: %d consecutive steady steps exceed the reset period %d",
					h.Steps(), steadyRun, cfg.ResetPeriod)
			}
		} else {
			steadyRun = 0
		}
	}
	if steady == 0 {
		t.Fatal("controller never reached steady state between resets")
	}
	if h.PhaseSwitches() < 4 {
		t.Fatalf("periodic reset should keep cycling phases, saw only %d switches", h.PhaseSwitches())
	}
}

// Regression: the periodic reset used to fire on stepCount%ResetPeriod
// even during the transient phase, repeatedly clearing the sign history —
// with ResetPeriod ≤ CriterionWindow the criterion could never fill its
// window and steady state was unreachable. The period is now counted from
// the last phase transition and only ever ends a steady phase.
func TestPeriodicResetDoesNotStarveSteadyDetection(t *testing.T) {
	cases := []struct {
		name            string
		resetPeriod     int
		criterionWindow int
	}{
		{"period below window", 3, 5},
		{"period just below window", 4, 5},
		{"period equals window", 5, 5},
		{"period one above window", 6, 5},
		{"period well above window", 20, 5},
		{"window one", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := plainConfig()
			cfg.ResetPeriod = tc.resetPeriod
			cfg.CriterionWindow = tc.criterionWindow
			if tc.criterionWindow == 1 {
				cfg.CriterionThreshold = 1
			}
			h, err := NewHybrid(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := vProfile(3000)
			reached := false
			for i := 0; i < 200 && !reached; i++ {
				h.Observe(f(h.Size()))
				reached = h.InSteadyState()
			}
			if !reached {
				t.Fatalf("ResetPeriod %d with CriterionWindow %d never reached steady state",
					tc.resetPeriod, tc.criterionWindow)
			}
			// And the reset still does its job: steady state ends within
			// ResetPeriod further steps.
			for i := 0; i <= tc.resetPeriod && h.InSteadyState(); i++ {
				h.Observe(f(h.Size()))
			}
			if h.InSteadyState() {
				t.Fatal("periodic reset never returned the controller to the transient phase")
			}
		})
	}
}

func TestHybridSwitchBack(t *testing.T) {
	cfg := plainConfig()
	cfg.AllowSwitchBack = true
	h, _ := NewHybrid(cfg)
	drive(h, vProfile(3000), 30)
	if !h.InSteadyState() {
		t.Fatal("precondition: steady state not reached")
	}
	// Move the optimum far away: the controller now consistently observes
	// degradation drift -> all signs equal -> switch back.
	drive(h, vProfile(30000), 30)
	if h.PhaseSwitches() < 2 {
		t.Fatal("hybrid-s did not switch back to constant gain after the optimum moved")
	}
}

func TestHybridNoSwitchBackByDefault(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	drive(h, vProfile(3000), 30)
	if !h.InSteadyState() {
		t.Fatal("precondition: steady state not reached")
	}
	drive(h, vProfile(30000), 40)
	if !h.InSteadyState() {
		t.Fatal("flavor 1 must stay in steady state (no switch back)")
	}
}

func TestExtremumReset(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	drive(h, vProfile(3000), 30)
	if h.Steps() == 0 {
		t.Fatal("precondition: steps taken")
	}
	h.Reset()
	if h.Size() != 1000 || h.Steps() != 0 || h.InSteadyState() || h.PhaseSwitches() != 0 {
		t.Fatalf("Reset left state behind: size=%d steps=%d steady=%v", h.Size(), h.Steps(), h.InSteadyState())
	}
	// And it adapts again from scratch.
	h.Observe(100)
	if h.Size() != 1500 {
		t.Fatalf("post-reset first step size = %d, want 1500", h.Size())
	}
}

func TestAveragingDelaysAdaptation(t *testing.T) {
	cfg := plainConfig()
	cfg.AvgHorizon = 3
	c, _ := NewConstant(cfg)
	c.Observe(100)
	c.Observe(100)
	if c.Size() != 1000 {
		t.Fatal("controller moved before the averaging horizon filled")
	}
	c.Observe(100)
	if c.Size() != 1500 {
		t.Fatalf("controller should take its first step after n samples, size = %d", c.Size())
	}
}

func TestSteadyStateGainCappedAtB1(t *testing.T) {
	cfg := plainConfig()
	h, _ := NewHybrid(cfg)
	f := vProfile(3000)
	drive(h, f, 30)
	if !h.InSteadyState() {
		t.Fatal("precondition: steady state not reached")
	}
	// Feed violent relative swings; steps must stay bounded by b1.
	prev := h.Size()
	big := []float64{1, 1000, 1, 1000, 1, 1000}
	for i, y := range big {
		h.Observe(y)
		cur := h.Size()
		if d := math.Abs(float64(cur - prev)); d > cfg.B1+1e-9 {
			t.Fatalf("swing %d: steady-state step %g exceeds b1 %g", i, d, cfg.B1)
		}
		prev = cur
	}
}

func TestHybridHoldsOnHandoffStep(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	f := vProfile(3000)
	for i := 0; i < 100 && !h.InSteadyState(); i++ {
		h.Observe(f(h.Size()))
	}
	if !h.InSteadyState() {
		t.Fatal("never reached steady state")
	}
	parked := h.Size()
	h.Observe(f(h.Size()))
	// First steady-state step holds (gain 0, dither disabled).
	if h.Size() != parked {
		t.Fatalf("hand-off step moved %d -> %d, want hold", parked, h.Size())
	}
}
