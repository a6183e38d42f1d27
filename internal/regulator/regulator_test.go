package regulator

import (
	"math"
	"reflect"
	"testing"
	"time"

	"wsopt/internal/metrics"
)

// fakeClock is the injectable clock: each call advances one interval, so
// decision timestamps are a pure function of the tick count.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func testConfig() Config {
	return Config{
		SLOp95MS: 100,
		Floor:    2,
		Ceiling:  64,
		Gain:     0.5,
		Deadband: 0.05,
		Now:      (&fakeClock{t: time.Unix(0, 0), step: time.Second}).now,
	}
}

func mustNew(t *testing.T, cfg Config) *Regulator {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SLO", func(c *Config) { c.SLOp95MS = 0 }},
		{"negative SLO", func(c *Config) { c.SLOp95MS = -5 }},
		{"zero floor", func(c *Config) { c.Floor = 0 }},
		{"ceiling below floor", func(c *Config) { c.Floor = 10; c.Ceiling = 5 }},
		{"initial below floor", func(c *Config) { c.Initial = 1 }},
		{"initial above ceiling", func(c *Config) { c.Initial = 100 }},
	} {
		cfg := testConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{
		"proportional": ModeProportional, "prop": ModeProportional, "p": ModeProportional,
		"step": ModeStep, "fuzzy": ModeStep,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("pid"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestSetpointTracking feeds measurement sequences to both laws and
// checks the actuator moves the right way by the right rough amount —
// the table covers over-SLO, under-SLO, in-band, and deadband-edge
// ticks for each mode.
func TestSetpointTracking(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mode      Mode
		p95       float64
		wantMove  int // -1 down, 0 hold, +1 up
		wantLimit int // exact expected limit after one tick from Initial=64
	}{
		{"prop 2x over halves", ModeProportional, 200, -1, 32},
		{"prop mildly over trims", ModeProportional, 120, -1, 58},
		{"prop in band holds", ModeProportional, 100, 0, 64},
		{"prop deadband edge holds", ModeProportional, 104, 0, 64},
		{"prop far over clamps norm at 3", ModeProportional, 10_000, -1, 2}, // 64*(1-0.5*3)=-32 → floor 2
		{"step far over takes big step", ModeStep, 200, -1, 48},             // 64*(1-0.25)
		{"step mildly over creeps", ModeStep, 120, -1, 63},
		{"step in band holds", ModeStep, 100, 0, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = tc.mode
			r := mustNew(t, cfg)
			d := r.Step(tc.p95, true)
			if d.Limit != tc.wantLimit {
				t.Fatalf("limit after p95=%g: %d, want %d", tc.p95, d.Limit, tc.wantLimit)
			}
			move := 0
			if d.Limit < 64 {
				move = -1
			} else if d.Limit > 64 {
				move = 1
			}
			if move != tc.wantMove {
				t.Fatalf("move direction %d, want %d", move, tc.wantMove)
			}
			if d.ErrorMS != tc.p95-100 {
				t.Fatalf("ErrorMS = %g, want %g", d.ErrorMS, tc.p95-100)
			}
		})
	}
}

// Under-SLO measurements must grow the limit back (both laws).
func TestRecoveryGrowsLimit(t *testing.T) {
	for _, mode := range []Mode{ModeProportional, ModeStep} {
		cfg := testConfig()
		cfg.Mode = mode
		cfg.Initial = 8
		r := mustNew(t, cfg)
		d := r.Step(20, true) // far under the 100ms SLO
		if d.Limit <= 8 {
			t.Errorf("%v: limit %d did not grow on an under-SLO tick", mode, d.Limit)
		}
	}
}

// TestClampingAtBounds drives the law hard against both limits and
// checks the commanded limit never leaves [Floor, Ceiling].
func TestClampingAtBounds(t *testing.T) {
	for _, mode := range []Mode{ModeProportional, ModeStep} {
		cfg := testConfig()
		cfg.Mode = mode
		r := mustNew(t, cfg)
		for i := 0; i < 50; i++ {
			d := r.Step(1000, true) // 10x over SLO
			if d.Limit < cfg.Floor || d.Limit > cfg.Ceiling {
				t.Fatalf("%v: tick %d commanded limit %d outside [%d, %d]", mode, i, d.Limit, cfg.Floor, cfg.Ceiling)
			}
		}
		if got := r.Limit(); got != cfg.Floor {
			t.Fatalf("%v: sustained overload parked at %d, want floor %d", mode, got, cfg.Floor)
		}
		for i := 0; i < 50; i++ {
			d := r.Step(1, true) // far under SLO
			if d.Limit < cfg.Floor || d.Limit > cfg.Ceiling {
				t.Fatalf("%v: recovery tick %d commanded limit %d outside [%d, %d]", mode, i, d.Limit, cfg.Floor, cfg.Ceiling)
			}
		}
		if got := r.Limit(); got != cfg.Ceiling {
			t.Fatalf("%v: sustained idle parked at %d, want ceiling %d", mode, got, cfg.Ceiling)
		}
	}
}

// TestAntiWindupAtFloor: after a long saturated overload, the very first
// under-SLO tick must move the limit up. If the internal state had kept
// integrating below the floor, recovery would stall for as many ticks as
// the overload lasted — the windup bug this test pins down.
func TestAntiWindupAtFloor(t *testing.T) {
	for _, mode := range []Mode{ModeProportional, ModeStep} {
		cfg := testConfig()
		cfg.Mode = mode
		r := mustNew(t, cfg)
		for i := 0; i < 200; i++ {
			d := r.Step(2000, true)
			if i > 10 && !d.Saturated && d.Limit != cfg.Floor {
				t.Fatalf("%v: overload tick %d not saturated at floor (limit %d)", mode, i, d.Limit)
			}
		}
		d := r.Step(10, true)
		if d.Limit <= cfg.Floor {
			t.Fatalf("%v: first recovery tick held limit at %d — actuator state wound up below the floor", mode, d.Limit)
		}
	}
}

// Pressure must integrate while over SLO, cap at pressureMax
// (anti-windup on the integrating actuator), and decay to exactly zero
// once the SLO holds.
func TestPressureIntegratesCapsAndDecays(t *testing.T) {
	r := mustNew(t, testConfig())
	last := 0.0
	for i := 0; i < 20; i++ {
		d := r.Step(300, true)
		if d.Pressure < last {
			t.Fatalf("pressure fell from %g to %g during overload", last, d.Pressure)
		}
		last = d.Pressure
	}
	if last != 8 {
		t.Fatalf("pressure after sustained overload = %g, want cap 8", last)
	}
	for i := 0; i < 40 && r.Pressure() != 0; i++ {
		r.Step(100, true)
	}
	if got := r.Pressure(); got != 0 {
		t.Fatalf("pressure after recovery = %g, want exactly 0", got)
	}
}

// An empty window (no blocks served) must hold the limit and only decay
// the pressure; the decision is marked Held.
func TestEmptyWindowHoldsLimit(t *testing.T) {
	r := mustNew(t, testConfig())
	r.Step(400, true) // actuate once
	limit := r.Limit()
	p := r.Pressure()
	d := r.Step(0, false)
	if !d.Held {
		t.Fatal("empty window not marked Held")
	}
	if d.Limit != limit {
		t.Fatalf("empty window moved limit %d → %d", limit, d.Limit)
	}
	if d.Pressure >= p {
		t.Fatalf("empty window did not decay pressure (%g → %g)", p, d.Pressure)
	}
	if math.IsNaN(d.P95MS) {
		t.Fatal("held decision leaked NaN p95")
	}
}

// NaN measurements (a broken quantile) must be treated as no-data, never
// actuated on.
func TestNaNMeasurementHeld(t *testing.T) {
	r := mustNew(t, testConfig())
	limit := r.Limit()
	d := r.Step(math.NaN(), true)
	if !d.Held || d.Limit != limit {
		t.Fatalf("NaN p95 actuated: held=%v limit=%d (want held at %d)", d.Held, d.Limit, limit)
	}
}

// TestBitIdenticalRunsFromSeed replays the same measurement sequence
// through two regulators: the trajectories must match
// decision-for-decision (timestamps included, via the fake clock).
func TestBitIdenticalRunsFromSeed(t *testing.T) {
	meas := make([]float64, 300)
	for i := range meas {
		// A deterministic pseudo-load: swings above and below the SLO.
		meas[i] = 100 + 80*math.Sin(float64(i)/7) + 30*math.Cos(float64(i)/3)
	}
	run := func() []Decision {
		cfg := testConfig()
		cfg.Now = (&fakeClock{t: time.Unix(0, 0), step: time.Second}).now
		r := mustNew(t, cfg)
		out := make([]Decision, 0, len(meas))
		for _, m := range meas {
			out = append(out, r.Step(m, true))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs produced different trajectories")
	}
	for _, d := range a {
		if d.Limit < 2 || d.Limit > 64 {
			t.Fatalf("limit %d escaped [2, 64]", d.Limit)
		}
	}
}

// TestRunnerWindowsHistogram drives the Runner's Tick against a fake
// cumulative histogram and checks it feeds *windowed* p95s to the law:
// a burst of slow blocks in one interval must not haunt later intervals
// the way a cumulative quantile would.
func TestRunnerWindowsHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	hist := reg.Histogram("test_serve_ms", "", metrics.DefLatencyBuckets)
	r := mustNew(t, testConfig())
	sink := &fakeSink{}
	rn := &Runner{Reg: r, Src: hist.Snapshot, Sink: sink}

	// Interval 1: 100 slow blocks (~2000ms) → over SLO, limit cut.
	for i := 0; i < 100; i++ {
		hist.Observe(2000)
	}
	d1 := rn.Tick()
	if d1.Held || d1.Limit >= 64 {
		t.Fatalf("slow interval not actuated: %+v", d1)
	}
	if sink.limit != d1.Limit {
		t.Fatalf("sink limit %d, decision %d", sink.limit, d1.Limit)
	}

	// Interval 2: 400 fast blocks (~2ms). Cumulatively p95 would still be
	// ~2000ms (100 of 500 observations are slow); windowed it is ~2ms.
	for i := 0; i < 400; i++ {
		hist.Observe(2)
	}
	d2 := rn.Tick()
	if d2.P95MS > 100 {
		t.Fatalf("windowed p95 = %g — the runner is reading the cumulative histogram", d2.P95MS)
	}
	if d2.Limit <= d1.Limit {
		t.Fatalf("fast interval did not recover the limit (%d → %d)", d1.Limit, d2.Limit)
	}

	// Interval 3: idle → held.
	d3 := rn.Tick()
	if !d3.Held {
		t.Fatal("idle interval not held")
	}
}

type fakeSink struct {
	limit    int
	pressure float64
}

func (f *fakeSink) SetSessionLimit(n int)          { f.limit = n }
func (f *fakeSink) SetAdmissionPressure(p float64) { f.pressure = p }

// The /metrics gauges must expose the live loop state under the
// documented names.
func TestRegisterExposesGauges(t *testing.T) {
	r := mustNew(t, testConfig())
	reg := metrics.NewRegistry()
	Register(reg, r)
	r.Step(250, true)
	snap := reg.Snapshot()
	if got := snap.Gauge("wsopt_regulator_slo_p95_ms"); got != 100 {
		t.Errorf("setpoint gauge = %g, want 100", got)
	}
	if got := snap.Gauge("wsopt_regulator_p95_ms"); got != 250 {
		t.Errorf("p95 gauge = %g, want 250", got)
	}
	if got := snap.Gauge("wsopt_regulator_error_ms"); got != 150 {
		t.Errorf("error gauge = %g, want 150", got)
	}
	if got := snap.Gauge("wsopt_regulator_session_limit"); got != float64(r.Limit()) {
		t.Errorf("limit gauge = %g, want %d", got, r.Limit())
	}
	if got := snap.Gauge("wsopt_regulator_ticks_total"); got != 1 {
		t.Errorf("ticks gauge = %g, want 1", got)
	}
}
