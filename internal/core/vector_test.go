package core

import (
	"math"
	"testing"
)

// vectorTestConfig mirrors plainConfig: dither off, horizon 1, small
// gains, so convergence behavior is exact and fast to test.
func vectorTestConfig() VectorConfig {
	cfg := DefaultVectorConfig()
	cfg.AvgHorizon = 1
	cfg.Dims[DimSize] = DimConfig{Initial: 1000, Limits: Limits{Min: 100, Max: 20000}, B1: 500, B2: 10}
	cfg.Dims[DimStreams] = DimConfig{Initial: 1, Limits: Limits{Min: 1, Max: 16}, B1: 2, B2: 4}
	cfg.Dims[DimDepth] = DimConfig{Initial: 1, Limits: Limits{Min: 1, Max: 8}, B1: 1, B2: 2}
	return cfg
}

// bowl returns a smooth per-tuple cost with its unique minimum at opt:
// a quadratic in span-normalized coordinates, so every dimension
// contributes comparably unless weighted otherwise.
func bowl(cfg VectorConfig, opt Vector, w [NumDims]float64) func(Vector) float64 {
	return func(v Vector) float64 {
		y := 1.0
		for d := Dim(0); d < NumDims; d++ {
			r := float64(v.Get(d)-opt.Get(d)) / cfg.Dims[d].span()
			y += w[d] * r * r
		}
		return y
	}
}

func driveVector(ctl *VectorController, f func(Vector) float64, steps int) {
	for i := 0; i < steps; i++ {
		ctl.Observe(f(ctl.Vector()))
	}
}

func TestVectorConfigValidate(t *testing.T) {
	good := vectorTestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*VectorConfig){
		func(c *VectorConfig) { c.Dims[DimSize].Initial = 0 },
		func(c *VectorConfig) { c.Dims[DimStreams].B1 = 0 },
		func(c *VectorConfig) { c.Dims[DimDepth].B2 = -1 },
		func(c *VectorConfig) { c.Dims[DimSize].DitherFactor = -1 },
		func(c *VectorConfig) { c.Dims[DimSize].Limits = Limits{Min: 10, Max: 5} },
		func(c *VectorConfig) { c.CriterionWindow = 0 },
		func(c *VectorConfig) { c.CriterionThreshold = -1 },
		func(c *VectorConfig) { c.ResetPeriod = -1 },
		func(c *VectorConfig) { c.SensitivityGain = 1.5 },
	}
	for i, mut := range mutations {
		cfg := vectorTestConfig()
		mut(&cfg)
		if _, err := NewVector(cfg); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestVectorConvergesInAllDimensions(t *testing.T) {
	cfg := vectorTestConfig()
	opt := Vector{Size: 4000, Streams: 6, Depth: 3}
	f := bowl(cfg, opt, [NumDims]float64{8, 8, 8})
	ctl, err := NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveVector(ctl, f, 400)
	v := ctl.Vector()
	if math.Abs(float64(v.Size-opt.Size)) > 1500 {
		t.Errorf("size = %d, want near %d", v.Size, opt.Size)
	}
	if math.Abs(float64(v.Streams-opt.Streams)) > 3 {
		t.Errorf("streams = %d, want near %d", v.Streams, opt.Streams)
	}
	if math.Abs(float64(v.Depth-opt.Depth)) > 2 {
		t.Errorf("depth = %d, want near %d", v.Depth, opt.Depth)
	}
	if ctl.PhaseSwitches() == 0 {
		t.Error("controller never detected steady state on the vector trajectory")
	}
}

func TestVectorRespectsLimits(t *testing.T) {
	cfg := vectorTestConfig()
	// Optimum far outside every range: the controller must pin to the
	// limits without ever emitting an out-of-range coordinate.
	f := func(v Vector) float64 {
		return 1.0 / (float64(v.Size) * float64(v.Streams) * float64(v.Depth))
	}
	ctl, _ := NewVector(cfg)
	for i := 0; i < 200; i++ {
		v := ctl.Vector()
		if v.Size < 100 || v.Size > 20000 || v.Streams < 1 || v.Streams > 16 || v.Depth < 1 || v.Depth > 8 {
			t.Fatalf("step %d: vector %v escaped its limits", i, v)
		}
		ctl.Observe(f(v))
	}
	v := ctl.Vector()
	if v.Streams < 12 || v.Depth < 6 {
		t.Errorf("monotone profile should drive streams/depth to the top: got %v", v)
	}
}

func TestVectorDominantDimensionTracksSensitivity(t *testing.T) {
	cfg := vectorTestConfig()
	// Only the stream count matters; size and depth are flat.
	opt := Vector{Size: 1000, Streams: 10, Depth: 1}
	f := bowl(cfg, opt, [NumDims]float64{0, 40, 0})
	ctl, _ := NewVector(cfg)
	driveVector(ctl, f, 60)
	if got := ctl.DominantDim(); got != DimStreams {
		t.Errorf("dominant dim = %v (sens %.4g/%.4g/%.4g), want streams",
			got, ctl.Sensitivity(DimSize), ctl.Sensitivity(DimStreams), ctl.Sensitivity(DimDepth))
	}
	if v := ctl.Vector(); math.Abs(float64(v.Streams-opt.Streams)) > 3 {
		t.Errorf("streams = %d, want near %d", v.Streams, opt.Streams)
	}
}

func TestVectorWarmStartConvergesFaster(t *testing.T) {
	cfg := vectorTestConfig()
	opt := Vector{Size: 6000, Streams: 8, Depth: 4}
	f := bowl(cfg, opt, [NumDims]float64{8, 8, 8})
	yOpt := f(opt)

	stepsToNear := func(ctl *VectorController) int {
		for i := 1; i <= 400; i++ {
			ctl.Observe(f(ctl.Vector()))
			if f(ctl.Vector()) <= yOpt*1.05 {
				return i
			}
		}
		return 400
	}

	cold, _ := NewVector(cfg)
	warm, _ := NewVector(cfg)
	warm.WarmStart(Vector{Size: 6200, Streams: 8, Depth: 4})
	nc, nw := stepsToNear(cold), stepsToNear(warm)
	if nw >= nc {
		t.Errorf("warm start took %d steps, cold %d — warm must be faster", nw, nc)
	}
	if got := warm.Vector(); math.Abs(float64(got.Size-opt.Size)) > 1500 {
		t.Errorf("warm-started controller drifted to %v, optimum %v", got, opt)
	}
}

func TestVectorWarmStartMidRunActsAsDisturbance(t *testing.T) {
	cfg := vectorTestConfig()
	f := bowl(cfg, Vector{Size: 4000, Streams: 4, Depth: 2}, [NumDims]float64{8, 8, 8})
	ctl, _ := NewVector(cfg)
	driveVector(ctl, f, 100)
	ctl.WarmStart(Vector{Size: 12000, Streams: 12, Depth: 6})
	if ctl.InSteadyState() {
		t.Error("mid-run warm start must re-enter the transient phase")
	}
	if v := ctl.Vector(); v.Size != 12000 || v.Streams != 12 || v.Depth != 6 {
		t.Errorf("vector after warm start = %v", v)
	}
}

func TestVectorPeriodicResetAnchoredToTransition(t *testing.T) {
	cfg := vectorTestConfig()
	cfg.ResetPeriod = 4 // below CriterionWindow: must still reach steady state
	opt := Vector{Size: 3000, Streams: 4, Depth: 2}
	f := bowl(cfg, opt, [NumDims]float64{8, 8, 8})
	ctl, _ := NewVector(cfg)
	steady, steadyRun := 0, 0
	for i := 0; i < 300; i++ {
		ctl.Observe(f(ctl.Vector()))
		if ctl.InSteadyState() {
			steady++
			steadyRun++
			if steadyRun > cfg.ResetPeriod {
				t.Fatalf("step %d: steady run %d exceeds reset period %d", i, steadyRun, cfg.ResetPeriod)
			}
		} else {
			steadyRun = 0
		}
	}
	if steady == 0 {
		t.Fatal("vector controller with ResetPeriod < CriterionWindow never reached steady state")
	}
}

func TestVectorDisturbKeepsPositionClearsHistory(t *testing.T) {
	cfg := vectorTestConfig()
	f := bowl(cfg, Vector{Size: 5000, Streams: 6, Depth: 3}, [NumDims]float64{8, 8, 8})
	ctl, _ := NewVector(cfg)
	driveVector(ctl, f, 150)
	before := ctl.Vector()
	ctl.Disturb()
	if got := ctl.Vector(); got != before {
		t.Errorf("Disturb moved the vector: %v -> %v", before, got)
	}
	if ctl.InSteadyState() {
		t.Error("Disturb must re-enter the transient phase")
	}
	// And it still re-converges afterwards.
	driveVector(ctl, f, 150)
	if !ctl.InSteadyState() && ctl.PhaseSwitches() < 2 {
		t.Error("controller did not recover after the disturbance")
	}
}
