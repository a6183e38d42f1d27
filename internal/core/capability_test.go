package core

import "testing"

// phased is what the capability rows need of the controller at the end of
// a chain: it steps, and it has the hybrid scheme's phases.
type phased interface {
	Controller
	InSteadyState() bool
}

// TestCapabilityChain: a runner reaches a controller's disturbance
// reaction, its phase and its operating point through NotifyDisturbance,
// PhaseOf and VectorOf, whatever wraps the controller — wrappers expose
// what they drive through Unwrap and forward nothing themselves. (The
// sysid wrappers have the same table in internal/sysid.)
func TestCapabilityChain(t *testing.T) {
	hybrid := func() *Hybrid {
		h, err := NewHybrid(plainConfig())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	vcfg := DefaultPushVectorConfig()
	vcfg.AvgHorizon = 1
	vcfg.Dims[DimSize].DitherFactor = 0
	vector := func() *VectorController {
		v, err := NewVector(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	supervise := func(bank ...Controller) *Supervisor {
		s, err := NewSupervisor(bank, SupervisorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cost := bowl(vcfg, Vector{Size: 3000, Streams: 6, Depth: 3, Window: 8}, [NumDims]float64{8, 8, 8, 8})

	rows := []struct {
		name string
		// build returns the controller a runner holds and the one at the
		// end of its chain; nil when nothing on the chain has a capability.
		build func() (outer Controller, inner phased)
	}{
		{"hybrid", func() (Controller, phased) { h := hybrid(); return h, h }},
		{"supervisor(hybrid, constant)", func() (Controller, phased) {
			h := hybrid()
			c, _ := NewConstant(plainConfig())
			return supervise(h, c), h
		}},
		{"vector", func() (Controller, phased) { v := vector(); return v, v }},
		{"supervisor(vector, hybrid)", func() (Controller, phased) { v := vector(); return supervise(v, hybrid()), v }},
		// tracer is the test-local pass-through of the kind bench/ uses.
		{"unwrap-wrapper(hybrid)", func() (Controller, phased) { h := hybrid(); return tracer{tracer{h}}, h }},
		{"unwrap-wrapper(vector)", func() (Controller, phased) { v := vector(); return tracer{v}, v }},
		// MIMD — like sysid's SelfTuning and SetpointTracking — has no
		// notion of a disturbance and no phases today: there is nothing
		// to reach, and the chain must say so rather than invent it.
		{"mimd", func() (Controller, phased) {
			m, _ := NewMIMD(MIMDConfig{InitialSize: 1000, Gain: 1.5, Limits: DefaultLimits})
			return m, nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			outer, inner := row.build()
			if inner == nil {
				if NotifyDisturbance(outer, "failover") {
					t.Error("NotifyDisturbance reports a reaction nothing on the chain has")
				}
				if got := PhaseOf(outer); got != "" {
					t.Errorf("PhaseOf = %q, want none", got)
				}
				if got, want := VectorOf(outer), (Vector{Size: outer.Size(), Streams: 1, Depth: 1}); got != want {
					t.Errorf("VectorOf = %+v, want %+v", got, want)
				}
				return
			}
			for i := 0; i < 400 && !inner.InSteadyState(); i++ {
				outer.Observe(cost(VectorOf(outer)))
			}
			if !inner.InSteadyState() {
				t.Fatal("precondition: the inner controller never reached steady state")
			}
			if got := PhaseOf(outer); got != "steady" {
				t.Errorf("PhaseOf = %q, want the inner controller's %q", got, "steady")
			}
			want := Vector{Size: inner.Size(), Streams: 1, Depth: 1}
			if v, ok := inner.(*VectorController); ok {
				if want = v.Vector(); want.Window < 1 {
					t.Fatalf("precondition: DefaultPushVectorConfig commands window %d", want.Window)
				}
			}
			if got := VectorOf(outer); got != want {
				t.Errorf("VectorOf = %+v, want the inner controller's %+v", got, want)
			}

			if !NotifyDisturbance(outer, "failover") {
				t.Error("NotifyDisturbance did not reach a Disturber")
			}
			if inner.InSteadyState() || PhaseOf(outer) != "transient" {
				t.Errorf("after the disturbance: inner steady = %v, PhaseOf = %q; want the inner controller back in its transient",
					inner.InSteadyState(), PhaseOf(outer))
			}
			if got := VectorOf(outer); got != want {
				t.Errorf("the disturbance moved the operating point %+v -> %+v", want, got)
			}
		})
	}
}

// AIMD is a law of the extremum engine, so it has the engine's
// disturbance reaction: the size is kept and the next step is the
// first-step probe again, whatever the measurement says.
func TestAIMDDisturbKeepsSizeAndRestartsTheProbe(t *testing.T) {
	a, _ := NewAIMD(aimdConfig())
	a.Observe(100) // 1000 -> 1500
	a.Observe(150) // degradation -> 750
	if !NotifyDisturbance(a, "failover") || a.Size() != 750 {
		t.Fatalf("disturbance must be taken and keep the size: size = %d, want 750", a.Size())
	}
	a.Observe(1e9) // no previous step to compare with: probe up by Increase
	if a.Size() != 1250 {
		t.Fatalf("first post-disturbance step = %d, want 1250 (+Increase)", a.Size())
	}
}
