package sysid

import (
	"math"
	"testing"

	"wsopt/internal/core"
)

func TestSetpointValidation(t *testing.T) {
	limits := core.Limits{Min: 100, Max: 20000}
	bad := []SetpointConfig{
		{Limits: limits, ProbeAmp: -0.1},
		{Limits: limits, ProbeAmp: 1},
		{Limits: core.Limits{Min: 100, Max: 100}},
	}
	for i, cfg := range bad {
		if _, err := NewSetpointTracking(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewSetpointTracking(SetpointConfig{Limits: limits}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSetpointConvergesToOptimum(t *testing.T) {
	st, err := NewSetpointTracking(SetpointConfig{
		Limits: core.Limits{Min: 100, Max: 20000},
		Kind:   ModelParabolic,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := parabolicEnv(2000, 2e-4, 1) // optimum ~3162
	for i := 0; i < 60; i++ {
		st.Observe(env(st.Size()))
	}
	if d := math.Abs(float64(st.Setpoint()) - math.Sqrt(1e7)); d > 120 {
		t.Fatalf("setpoint %d is %g away from the optimum", st.Setpoint(), d)
	}
	// The commanded size follows the setpoint within the probe band.
	if d := math.Abs(float64(st.Size()) - float64(st.Setpoint())); d > 0.12*float64(st.Setpoint())+1 {
		t.Fatalf("size %d strayed from setpoint %d", st.Size(), st.Setpoint())
	}
}

func TestSetpointTracksMovingOptimum(t *testing.T) {
	st, err := NewSetpointTracking(SetpointConfig{
		Limits: core.Limits{Min: 100, Max: 20000},
		Kind:   ModelParabolic,
		Lambda: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	envA := parabolicEnv(2000, 2e-4, 1) // ~3162
	for i := 0; i < 50; i++ {
		st.Observe(envA(st.Size()))
	}
	first := st.Setpoint()
	envB := parabolicEnv(9000, 4e-5, 1) // ~15000
	for i := 0; i < 150; i++ {
		st.Observe(envB(st.Size()))
	}
	second := st.Setpoint()
	if second <= first+1000 {
		t.Fatalf("setpoint did not track the drift: %d -> %d", first, second)
	}
}

func TestSetpointIgnoresBrokenMeasurements(t *testing.T) {
	st, _ := NewSetpointTracking(SetpointConfig{Limits: core.Limits{Min: 100, Max: 20000}})
	before := st.Size()
	st.Observe(math.NaN())
	st.Observe(-1)
	if st.Size() != before {
		t.Fatal("broken measurements moved the controller")
	}
	if st.Estimator().Updates() != 0 {
		t.Fatal("broken measurements reached the estimator")
	}
}

func TestSetpointHoldsOnUnusableModel(t *testing.T) {
	st, _ := NewSetpointTracking(SetpointConfig{
		Limits: core.Limits{Min: 100, Max: 20000},
		Kind:   ModelParabolic,
	})
	// Monotonically increasing cost: the parabolic optimum is degenerate;
	// the controller must hold rather than jump around.
	for i := 0; i < 30; i++ {
		st.Observe(0.001 * float64(st.Size()))
	}
	if st.Setpoint() != 0 {
		t.Fatalf("degenerate model should report no setpoint, got %d", st.Setpoint())
	}
	if s := st.Size(); s < 100 || s > 20000 {
		t.Fatalf("size %d escaped the limits", s)
	}
}
