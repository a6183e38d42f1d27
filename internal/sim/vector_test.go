package sim

import (
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/sysid"
)

func TestVectorScenariosPlaceOptimaInDistinctDimensions(t *testing.T) {
	lims := netsim.DefaultVectorLimits()
	byName := map[string]core.Vector{}
	for _, sc := range VectorScenarios() {
		v, y := sc.Model.OptimalVector(lims, 100)
		if y <= 0 {
			t.Fatalf("%s: degenerate optimum cost %g", sc.Name, y)
		}
		byName[sc.Name] = v
	}
	if v := byName["bandwidth-bound"]; v.Streams < 4 {
		t.Errorf("bandwidth-bound optimum should want many streams, got %v", v)
	}
	if v := byName["latency-bound"]; v.Depth < 3 {
		t.Errorf("latency-bound optimum should want a deep pipeline, got %v", v)
	}
	if v := byName["server-load-bound"]; v.Streams != 1 || v.Depth > 2 {
		t.Errorf("server-load-bound optimum should shun concurrency, got %v", v)
	}
}

func simVectorConfig() core.VectorConfig {
	cfg := core.DefaultVectorConfig()
	cfg.Dims[core.DimSize].B1 = 1200
	cfg.Dims[core.DimSize].DitherFactor = 25
	return cfg
}

// The acceptance experiment: on a profile whose optimum needs parallel
// streams, the vector controller reaches the 5% band around the
// ground-truth optimum while the single-knob hybrid — structurally
// confined to streams=1 — cannot.
func TestVectorControllerBeatsSingleKnobOnMultiDimProfile(t *testing.T) {
	sc := VectorScenarios()[0] // bandwidth-bound
	opt := VectorOptions{Rounds: 400, Seed: 42}

	vctl, err := core.NewVector(simVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	vres := RunVector(sc, vctl, opt)

	hcfg := core.DefaultConfig()
	hcfg.Seed = 42
	hctl, err := core.NewHybrid(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	sres := RunVector(sc, hctl, opt)

	if !vres.Converged() {
		t.Fatalf("vector controller never entered the 5%% band: final %v (%.4f ms/tuple, optimum %.4f at %v)",
			vres.Final, vres.FinalPerTupleMS, vres.OptimumPerTupleMS, vres.Optimum)
	}
	if sres.Converged() && sres.ConvergedRound <= vres.ConvergedRound {
		t.Errorf("single-knob hybrid converged at round %d, vector at %d — vector must be faster",
			sres.ConvergedRound, vres.ConvergedRound)
	}
	if vres.MeanPerTupleMS >= sres.MeanPerTupleMS {
		t.Errorf("vector mean per-tuple %.4f should beat single-knob %.4f",
			vres.MeanPerTupleMS, sres.MeanPerTupleMS)
	}
}

// A warm start from a stored optimum must reach the band faster than the
// cold 6-sample identification path.
func TestVectorWarmStartBeatsColdStart(t *testing.T) {
	sc := VectorScenarios()[0]
	lims := netsim.DefaultVectorLimits()
	optVec, _ := sc.Model.OptimalVector(lims, 100)
	opt := VectorOptions{Rounds: 400, Seed: 7}

	warmCtl, err := core.NewVector(simVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, err := sysid.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	w := sysid.WorkloadDescriptor{TupleBytes: 64, ScaleFactor: 1}
	if err := store.Put(sysid.ProfileRecord{Workload: w, Optimum: optVec, Rounds: 400}); err != nil {
		t.Fatal(err)
	}
	if !store.WarmStart(warmCtl, w, 0) {
		t.Fatal("store refused to warm-start an exact workload match")
	}
	wres := RunVector(sc, warmCtl, opt)

	coldCtl, err := core.NewVector(simVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sysid.NewVectorColdStart(coldCtl, lims.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	cres := RunVector(sc, cold, opt)

	if !wres.Converged() {
		t.Fatalf("warm-started run never converged: final %v", wres.Final)
	}
	if cres.Converged() && cres.ConvergedRound <= wres.ConvergedRound {
		t.Errorf("cold start converged at round %d, warm at %d — warm must be faster",
			cres.ConvergedRound, wres.ConvergedRound)
	}
	if cres.Converged() && wres.MeanPerTupleMS >= cres.MeanPerTupleMS {
		t.Errorf("warm mean per-tuple %.4f should beat cold %.4f",
			wres.MeanPerTupleMS, cres.MeanPerTupleMS)
	}
}

// On the degenerate scenario where concurrency only hurts, the vector
// controller must not do worse than staying sequential: it should settle
// at one stream and a shallow pipeline.
func TestVectorControllerCollapsesOnServerLoadBoundProfile(t *testing.T) {
	sc := VectorScenarios()[2]
	vctl, err := core.NewVector(simVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := RunVector(sc, vctl, VectorOptions{Rounds: 400, Seed: 11})
	if res.Final.Streams > 3 || res.Final.Depth > 3 {
		t.Errorf("server-load-bound run should collapse concurrency, ended at %v", res.Final)
	}
}
