package core

import (
	"math"
	"testing"
)

// pushTestConfig unpins the window with test-scale gains, mirroring
// vectorTestConfig for the other dimensions.
func pushTestConfig() VectorConfig {
	cfg := vectorTestConfig()
	cfg.Dims[DimWindow] = DimConfig{Initial: 4, Limits: Limits{Min: 1, Max: 64}, B1: 4, B2: 4}
	return cfg
}

// TestPinnedWindowNeverMoves pins the compatibility contract: with the
// default (pull) configuration the window dimension is frozen at 1 and
// the scheduler never selects it, no matter how much the objective
// pretends to depend on it.
func TestPinnedWindowNeverMoves(t *testing.T) {
	cfg := vectorTestConfig() // window pinned at {1,1} by DefaultVectorConfig
	ctl, err := NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := bowl(cfg, Vector{Size: 4000, Streams: 6, Depth: 3, Window: 32}, [NumDims]float64{8, 8, 8, 100})
	for i := 0; i < 300; i++ {
		if got := ctl.Vector().Window; got != 1 {
			t.Fatalf("step %d: pinned window moved to %d", i, got)
		}
		if d := ctl.DominantDim(); d == DimWindow {
			t.Fatalf("step %d: scheduler selected the pinned window dimension", i)
		}
		ctl.Observe(f(ctl.Vector()))
	}
	if ctl.PhaseSwitches() == 0 {
		t.Error("controller never reached steady state with a pinned dimension present")
	}
}

// TestPushWindowConverges drives the unpinned controller on a bowl whose
// optimum has a distinct window coordinate: coordinate descent must find
// it along with the other three dimensions.
func TestPushWindowConverges(t *testing.T) {
	cfg := pushTestConfig()
	opt := Vector{Size: 4000, Streams: 6, Depth: 3, Window: 24}
	f := bowl(cfg, opt, [NumDims]float64{8, 8, 8, 8})
	ctl, err := NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveVector(ctl, f, 500)
	v := ctl.Vector()
	if math.Abs(float64(v.Window-opt.Window)) > 12 {
		t.Errorf("window = %d, want near %d", v.Window, opt.Window)
	}
	if math.Abs(float64(v.Size-opt.Size)) > 2000 {
		t.Errorf("size = %d, want near %d", v.Size, opt.Size)
	}
}

// TestPinnedWindowResetAndDisturbStayPinned guards the re-marking of
// pinned dimensions after Reset and Disturb clear the probe flags.
func TestPinnedWindowResetAndDisturbStayPinned(t *testing.T) {
	cfg := vectorTestConfig()
	ctl, err := NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := bowl(cfg, Vector{Size: 4000, Streams: 6, Depth: 3}, [NumDims]float64{8, 8, 8})
	driveVector(ctl, f, 50)
	ctl.Disturb()
	driveVector(ctl, f, 50)
	ctl.Reset()
	driveVector(ctl, f, 50)
	if got := ctl.Vector().Window; got != 1 {
		t.Fatalf("window = %d after reset/disturb cycles, want 1", got)
	}
}

// TestDefaultPushVectorConfig sanity-checks the push preset: window
// unpinned, everything else identical to the pull default.
func TestDefaultPushVectorConfig(t *testing.T) {
	pull, push := DefaultVectorConfig(), DefaultPushVectorConfig()
	if push.Dims[DimWindow].pinned() {
		t.Fatal("push preset left the window pinned")
	}
	if !pull.Dims[DimWindow].pinned() {
		t.Fatal("pull preset unpinned the window")
	}
	for d := Dim(0); d < DimWindow; d++ {
		if pull.Dims[d] != push.Dims[d] {
			t.Fatalf("%s differs between pull and push presets", d)
		}
	}
	if err := push.Validate(); err != nil {
		t.Fatal(err)
	}
}
