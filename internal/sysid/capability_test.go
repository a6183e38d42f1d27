package sysid

import (
	"testing"

	"wsopt/internal/core"
)

// TestCapabilityChainThroughWrappers is core.TestCapabilityChain for the
// wrappers of this package: the Fig. 9 scheme (a model-based start handing
// over to a refiner) and the vector cold start expose what they drive
// through Unwrap, so core.NotifyDisturbance, core.PhaseOf and
// core.VectorOf reach it — and say there is nothing to reach while the
// model-based sweep drives no controller yet.
func TestCapabilityChainThroughWrappers(t *testing.T) {
	limits := core.Limits{Min: 100, Max: 20000}
	// Eq. 9's shape in the block size (optimum at 3000 tuples), a shallow
	// bowl in the other knobs so the vector search settles.
	cost := func(v core.Vector) float64 {
		x := float64(v.Size)
		y := 3000/x + x/3000 + 1
		for _, d := range []float64{float64(v.Streams - 4), float64(v.Depth - 2), float64(v.Window - 8)} {
			y += d * d / 400
		}
		return y
	}
	// reached drives outer until inner is in steady state and checks the
	// three capabilities against inner, the controller at the end of the
	// chain.
	reached := func(t *testing.T, outer core.Controller, inner interface {
		core.Controller
		InSteadyState() bool
	}) {
		t.Helper()
		for i := 0; i < 600 && !inner.InSteadyState(); i++ {
			outer.Observe(cost(core.VectorOf(outer)))
		}
		if !inner.InSteadyState() {
			t.Fatal("precondition: the inner controller never reached steady state")
		}
		if got := core.PhaseOf(outer); got != "steady" {
			t.Errorf("PhaseOf = %q, want the inner controller's %q", got, "steady")
		}
		want := core.Vector{Size: inner.Size(), Streams: 1, Depth: 1}
		if v, ok := inner.(*core.VectorController); ok {
			want = v.Vector()
		}
		if got := core.VectorOf(outer); got != want {
			t.Errorf("VectorOf = %+v, want the inner controller's %+v", got, want)
		}
		if !core.NotifyDisturbance(outer, "failover") {
			t.Error("NotifyDisturbance did not reach a Disturber")
		}
		if inner.InSteadyState() || core.PhaseOf(outer) != "transient" {
			t.Errorf("after the disturbance: inner steady = %v, PhaseOf = %q; want the inner controller back in its transient",
				inner.InSteadyState(), core.PhaseOf(outer))
		}
		if got := core.VectorOf(outer); got != want {
			t.Errorf("the disturbance moved the operating point %+v -> %+v", want, got)
		}
	}

	t.Run("model+refine(hybrid)", func(t *testing.T) {
		var refiner *core.Hybrid
		mb, err := NewModelBased(ModelBasedConfig{Limits: limits, Kind: ModelParabolic,
			Refine: func(initial int) (core.Controller, error) {
				cfg := core.DefaultConfig()
				cfg.InitialSize, cfg.B1, cfg.DitherFactor, cfg.AvgHorizon = initial, 500, 0, 1
				h, err := core.NewHybrid(cfg)
				refiner = h
				return h, err
			}})
		if err != nil {
			t.Fatal(err)
		}
		if core.HoldsSize(mb) {
			t.Error("a model-based start promises to hold its size")
		}
		// Before the decision the sweep drives no controller.
		if core.NotifyDisturbance(mb, "failover") {
			t.Error("before the decision: NotifyDisturbance reports a reaction nothing has")
		}
		if got := core.PhaseOf(mb); got != "" {
			t.Errorf("before the decision: PhaseOf = %q, want none", got)
		}
		if got, want := core.VectorOf(mb), (core.Vector{Size: limits.Min, Streams: 1, Depth: 1}); got != want {
			t.Errorf("before the decision: VectorOf = %+v, want the first sample %+v", got, want)
		}
		for i := 0; i < 10 && !mb.Decided(); i++ {
			mb.Observe(cost(core.VectorOf(mb)))
		}
		if refiner == nil {
			t.Fatal("precondition: the decision did not hand over to a refiner")
		}
		reached(t, mb, refiner)
		if fixed, _ := NewModelBased(ModelBasedConfig{Limits: limits, Kind: ModelParabolic,
			Refine: func(initial int) (core.Controller, error) { return core.NewStatic(initial), nil }}); core.HoldsSize(fixed) {
			t.Error("a model-based start over a static refiner promises to hold its size")
		}
	})

	t.Run("vector-cold-start", func(t *testing.T) {
		vcfg := core.DefaultPushVectorConfig()
		vcfg.AvgHorizon = 1
		vcfg.Dims[core.DimSize].B1 = 500
		vcfg.Dims[core.DimSize].DitherFactor = 0
		vctl, err := core.NewVector(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewVectorColdStart(vctl, limits, 0)
		if err != nil {
			t.Fatal(err)
		}
		// While it sweeps, the operating point is the sweep's probe size on
		// the controller's other knobs; phase and disturbance are already
		// the wrapped controller's.
		cold.Observe(cost(core.VectorOf(cold)))
		want := vctl.Vector()
		if want.Size = 100 + (20000-100)/5; want.Window != 4 {
			t.Fatalf("precondition: DefaultPushVectorConfig starts at window %d, want 4", want.Window)
		}
		if got := core.VectorOf(cold); got != want {
			t.Errorf("during the sweep: VectorOf = %+v, want the second probe %+v", got, want)
		}
		if got := core.PhaseOf(cold); got != "transient" {
			t.Errorf("during the sweep: PhaseOf = %q, want the wrapped controller's %q", got, "transient")
		}
		if !core.NotifyDisturbance(cold, "failover") {
			t.Error("during the sweep: NotifyDisturbance did not reach the wrapped controller")
		}
		for i := 0; i < 10 && !cold.Done(); i++ {
			cold.Observe(cost(core.VectorOf(cold)))
		}
		if !cold.Done() {
			t.Fatal("precondition: the sweep never finished")
		}
		reached(t, cold, vctl)
		if core.HoldsSize(cold) {
			t.Error("a vector cold start promises to hold its size")
		}
	})
}
