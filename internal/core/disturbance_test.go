package core

import (
	"math"
	"testing"
)

// driveToSteady feeds a convex cost surface until the hybrid declares
// steady state.
func driveToSteady(t *testing.T, h *Hybrid) {
	t.Helper()
	cost := func(x int) float64 { return math.Abs(float64(x)-3000)/10 + 100 }
	for i := 0; i < 200; i++ {
		if h.InSteadyState() {
			return
		}
		h.Observe(cost(h.Size()))
	}
	t.Fatal("hybrid never reached steady state on a convex cost surface")
}

func TestExtremumDisturbKeepsSizeAndReentersTransient(t *testing.T) {
	h, err := NewHybrid(plainConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveToSteady(t, h)
	size := h.Size()
	switches := h.PhaseSwitches()

	h.Disturb()

	if got := h.Size(); got != size {
		t.Fatalf("Disturb changed the block size %d -> %d; it must keep the operating point", size, got)
	}
	if h.InSteadyState() {
		t.Fatal("Disturb must re-enter the transient phase")
	}
	if h.PhaseSwitches() != switches+1 {
		t.Fatalf("phase switches = %d, want %d (steady->transient counted)", h.PhaseSwitches(), switches+1)
	}
	// The measurement history is gone: the next step is the "first" one
	// again and must move by exactly +b1 (no dither in plainConfig).
	h.Observe(100)
	if got := h.Size(); got != size+500 {
		t.Fatalf("first post-disturbance step moved to %d, want %d (+b1)", got, size+500)
	}
}

func TestExtremumDisturbFromTransientDoesNotCountSwitch(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	h.Observe(100) // still transient
	switches := h.PhaseSwitches()
	h.Disturb()
	if h.PhaseSwitches() != switches {
		t.Fatalf("disturb while transient counted a phase switch")
	}
}

// tracer is a pass-through wrapper of the kind bench/'s timedCtl is: it
// exposes the controller it wraps through Unwrap.
type tracer struct{ Controller }

func (t tracer) Unwrap() Controller { return t.Controller }

func TestNotifyDisturbanceUnwrapsTracer(t *testing.T) {
	h, _ := NewHybrid(plainConfig())
	driveToSteady(t, h)
	wrapped := tracer{tracer{h}}
	if !NotifyDisturbance(wrapped, "failover") {
		t.Fatal("NotifyDisturbance should reach the hybrid through its wrappers")
	}
	if h.InSteadyState() {
		t.Fatal("disturbance did not reach the wrapped controller")
	}
	if NotifyDisturbance(NewStatic(100), "failover") {
		t.Fatal("static controller has no disturbance reaction")
	}
	if NotifyDisturbance(nil, "failover") {
		t.Fatal("nil controller must be a no-op")
	}
}

// TestSupervisorDisturbRebaselines: after a disturbance (session failover
// to a slower replica) the supervisor must not fail over against the old
// replica's reference performance — the warmup restarts and best is
// re-learned at the new level.
func TestSupervisorDisturbRebaselines(t *testing.T) {
	mk := func() Controller {
		c, _ := NewConstant(plainConfig())
		return c
	}
	cfg := SupervisorConfig{Window: 4, DegradeFactor: 1.5, WarmupWindows: 1}

	// Control group: without Disturb, the same measurement stream (fast
	// replica, then 3x slower after failover) triggers a controller switch.
	ctl, _ := NewSupervisor([]Controller{mk(), mk()}, cfg)
	for i := 0; i < 8; i++ {
		ctl.Observe(1)
	}
	for i := 0; i < 20 && ctl.Switches() == 0; i++ {
		ctl.Observe(3)
	}
	if ctl.Switches() == 0 {
		t.Fatal("precondition: undisturbed supervisor fails over on a 3x level shift")
	}

	// With Disturb at the failover point, the 3x level is the new normal:
	// re-baselining must absorb it without a controller switch.
	s, _ := NewSupervisor([]Controller{mk(), mk()}, cfg)
	for i := 0; i < 8; i++ {
		s.Observe(1)
	}
	s.Disturb()
	for i := 0; i < 20; i++ {
		s.Observe(3)
	}
	if s.Switches() != 0 {
		t.Fatalf("switches = %d; Disturb should re-baseline so the new level is not judged against the old", s.Switches())
	}
	// Degradation relative to the *new* baseline must still be caught.
	for i := 0; i < 20 && s.Switches() == 0; i++ {
		s.Observe(9)
	}
	if s.Switches() != 1 {
		t.Fatalf("switches = %d, want 1: supervision must stay live after re-baselining", s.Switches())
	}
}

// TestSupervisorFailoverUnder503Storm models the latency signature of an
// injected 503 storm: every block needs several retries with backoff, so
// observed per-block response times blow up by an order of magnitude until
// the supervisor fails over to the next controller in the bank.
func TestSupervisorFailoverUnder503Storm(t *testing.T) {
	a, _ := NewConstant(plainConfig())
	b, _ := NewAdaptive(plainConfig())
	s, err := NewSupervisor([]Controller{a, b}, SupervisorConfig{Window: 5, DegradeFactor: 1.8, WarmupWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy phase: ~120ms blocks with mild jitter.
	for i := 0; i < 15; i++ {
		s.Observe(120 + float64(i%4))
	}
	if s.Switches() != 0 {
		t.Fatal("no failover expected while healthy")
	}
	// 503 storm: each block now pays retries + backoff before succeeding.
	storm := []float64{900, 1400, 1100, 2100, 1700}
	observed := 0
	for i := 0; i < 30 && s.Switches() == 0; i++ {
		s.Observe(storm[i%len(storm)])
		observed++
	}
	if s.Switches() != 1 {
		t.Fatalf("switches = %d, want 1 under a sustained 503 storm", s.Switches())
	}
	if s.Active() != 1 {
		t.Fatalf("active = %d, want the standby controller", s.Active())
	}
	// The storm should be detected within two evaluation windows.
	if observed > 10 {
		t.Fatalf("failover took %d observations, want <= 10 (two windows)", observed)
	}
}

// TestHoldsSize: the first controller on the chain with an opinion
// answers whether the size it asks for now is the size of every pull to
// come. A pass-through wrapper has none and answers with what it wraps;
// a supervisor says no even over two statics, since a failover changes
// the size.
func TestHoldsSize(t *testing.T) {
	sup, err := NewSupervisor([]Controller{NewStatic(50), NewStatic(70)}, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHybrid(plainConfig())
	for _, tc := range []struct {
		name string
		ctl  Controller
		want bool
	}{
		{"static", NewStatic(70), true},
		{"pass-through wrapper over a static", tracer{tracer{NewStatic(70)}}, true},
		{"supervisor over two statics", sup, false},
		{"pass-through wrapper over a supervisor", tracer{sup}, false},
		{"no opinion on the chain", h, false},
		{"wrapper that drives nothing", tracer{}, false},
	} {
		if got := HoldsSize(tc.ctl); got != tc.want {
			t.Errorf("%s: HoldsSize = %v, want %v", tc.name, got, tc.want)
		}
	}
}
