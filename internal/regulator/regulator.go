// Package regulator closes the server-side control loop: it reads the
// p95 block-serve time from the service's metrics histograms and
// regulates the admitted-session ceiling (and the Retry-After delay
// pricing) to hold a response-time SLO, replacing the static
// `-max-sessions` guess with a feedback law.
//
// The design follows "Regulating Response Time in an Autonomic Computing
// System" (Venkatarama & Chandra Sekaran), which compares a proportional
// controller against a fuzzy/step one for exactly this admission
// problem; both laws are implemented and selectable. The server thereby
// becomes a *second* controller coupled to the clients' block-size
// extremum controllers — "A Heuristic Approach to Protocol Tuning"
// (Arslan & Kosar) warns that such stacked loops can fight each other,
// so the package also ships the stability-analysis helpers
// (settling time, overshoot, sustained-oscillation detection) that
// internal/sim's coupled-loop scenarios assert against.
//
// The control law is a pure discrete-time function: Step(p95, hasData)
// advances one tick and returns the new actuation. The Runner wraps it
// with the wall-clock plumbing (interval ticker, histogram windowing,
// actuator application) that cmd/wsblockd uses; tests drive Step
// directly, so every trajectory is deterministic and replayable.
package regulator

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"wsopt/internal/metrics"
)

// Mode selects the control law.
type Mode int

const (
	// ModeProportional multiplies the actuator by (1 − gain·ê) each tick,
	// where ê is the normalized setpoint error — the proportional
	// controller of the Venkatarama comparison, multiplicative so the
	// response is scale-free in the limit.
	ModeProportional Mode = iota
	// ModeStep is the fuzzy/step variant: a coarse partition of the error
	// axis into {far over, over, in band, under, far under} with a large
	// multiplicative step at the extremes and a ±1 creep near the band —
	// the shape of a Mamdani fuzzy controller collapsed to its rule table.
	ModeStep
)

// ParseMode maps a flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "proportional", "prop", "p":
		return ModeProportional, nil
	case "step", "fuzzy":
		return ModeStep, nil
	}
	return 0, fmt.Errorf("regulator: unknown mode %q (want proportional or step)", s)
}

// String returns the flag spelling.
func (m Mode) String() string {
	if m == ModeStep {
		return "step"
	}
	return "proportional"
}

// The fixed shape of both laws.
const (
	// stepFrac is ModeStep's large multiplicative step.
	stepFrac = 0.25
	// bigError is the normalized error beyond which ModeStep takes the
	// large step instead of creeping by one.
	bigError = 0.5
	// pressureGain integrates normalized overload into the delay-pricing
	// pressure each over-SLO tick.
	pressureGain = 0.5
	// pressureDecay multiplies the pressure on each in-band or under-SLO
	// tick, so pricing relaxes quickly once the SLO holds.
	pressureDecay = 0.5
	// pressureMax caps the pressure — the anti-windup bound on the
	// integrating actuator: Retry-After pricing saturates instead of
	// growing without bound during a long overload.
	pressureMax = 8
)

// Config parameterizes a Regulator.
type Config struct {
	// SLOp95MS is the setpoint: the p95 block-serve time, in
	// milliseconds, the regulator defends. Required.
	SLOp95MS float64
	// Mode selects the control law (default proportional).
	Mode Mode
	// Gain scales the proportional correction per tick (default 0.5).
	// Overtuning it is how the mis-tuned-gain regression test provokes a
	// sustained oscillation.
	Gain float64
	// Deadband is the normalized-error band treated as "on setpoint"
	// (default 0.1): within ±Deadband·SLO the actuator holds, so
	// measurement noise does not chatter the session limit.
	Deadband float64
	// Floor and Ceiling clamp the admitted-session limit. Floor must be
	// ≥ 1 (the regulator never starves the server entirely); Ceiling must
	// be ≥ Floor. Required.
	Floor, Ceiling int
	// Initial is the starting limit (default Ceiling: start permissive,
	// let the loop claw back).
	Initial int
	// Now supplies tick timestamps (default time.Now); tests inject a
	// fake clock so decision timestamps are deterministic.
	Now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.SLOp95MS <= 0 {
		return c, fmt.Errorf("regulator: SLOp95MS must be positive, got %g", c.SLOp95MS)
	}
	if c.Floor < 1 {
		return c, fmt.Errorf("regulator: floor must be >= 1, got %d", c.Floor)
	}
	if c.Ceiling < c.Floor {
		return c, fmt.Errorf("regulator: ceiling %d below floor %d", c.Ceiling, c.Floor)
	}
	if c.Initial == 0 {
		c.Initial = c.Ceiling
	}
	if c.Initial < c.Floor || c.Initial > c.Ceiling {
		return c, fmt.Errorf("regulator: initial limit %d outside [%d, %d]", c.Initial, c.Floor, c.Ceiling)
	}
	if c.Gain <= 0 {
		c.Gain = 0.5
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// Decision is the outcome of one regulator tick.
type Decision struct {
	// At is the tick timestamp (from Config.Now).
	At time.Time
	// P95MS is the windowed p95 fed to this tick (last value held when
	// the window was empty).
	P95MS float64
	// ErrorMS is P95MS − SLO, the raw setpoint error.
	ErrorMS float64
	// NormError is ErrorMS / SLO after clamping — the signal the law
	// actually acts on.
	NormError float64
	// Limit is the admitted-session ceiling commanded for the next
	// interval.
	Limit int
	// Pressure is the delay-pricing pressure commanded for the next
	// interval.
	Pressure float64
	// Saturated reports that the continuous actuator was clamped at the
	// floor or ceiling this tick.
	Saturated bool
	// Held reports an empty measurement window: no new blocks were
	// served, so the limit was held and only the pressure decayed.
	Held bool
}

// Regulator is the admission feedback controller. Step is the only
// mutating entry point; it is safe for concurrent use with the gauge
// accessors.
type Regulator struct {
	mu  sync.Mutex
	cfg Config
	// x is the continuous actuator state the laws integrate on. It is
	// clamped to [Floor, Ceiling] every tick — clamping the state itself,
	// not just the commanded limit, is the anti-windup: during a long
	// overload the state parks exactly at the floor, so the first
	// under-SLO tick moves the limit immediately instead of first paying
	// back an unbounded deficit.
	x        float64
	limit    int
	pressure float64
	lastP95  float64
	lastErr  float64
	ticks    int64
}

// New builds a Regulator; the SLO, floor, and ceiling are required.
func New(cfg Config) (*Regulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Regulator{
		cfg:   cfg,
		x:     float64(cfg.Initial),
		limit: cfg.Initial,
	}, nil
}

// Setpoint returns the configured SLO in milliseconds.
func (r *Regulator) Setpoint() float64 { return r.cfg.SLOp95MS }

// Limit returns the currently commanded admitted-session ceiling.
func (r *Regulator) Limit() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.limit
}

// Pressure returns the currently commanded delay-pricing pressure.
func (r *Regulator) Pressure() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pressure
}

// LastP95 returns the most recent windowed p95 observation.
func (r *Regulator) LastP95() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastP95
}

// LastError returns the most recent setpoint error in milliseconds.
func (r *Regulator) LastError() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Ticks returns how many times Step has run.
func (r *Regulator) Ticks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Step advances the control law one tick. p95 is the windowed p95
// block-serve time of the last interval; hasData=false means the window
// was empty (no blocks served), in which case the limit holds and only
// the pressure decays — an idle server must not creep its actuators on
// stale information.
func (r *Regulator) Step(p95 float64, hasData bool) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	cfg := r.cfg
	r.ticks++
	d := Decision{At: cfg.Now(), Limit: r.limit, Pressure: r.pressure}

	if !hasData || math.IsNaN(p95) {
		d.Held = true
		d.P95MS = r.lastP95
		d.ErrorMS = r.lastErr
		d.NormError = r.normError(r.lastErr)
		r.pressure = decayPressure(r.pressure)
		d.Pressure = r.pressure
		return d
	}

	r.lastP95 = p95
	r.lastErr = p95 - cfg.SLOp95MS
	norm := r.normError(r.lastErr)
	d.P95MS = p95
	d.ErrorMS = r.lastErr
	d.NormError = norm

	switch {
	case math.Abs(norm) <= cfg.Deadband:
		// In band: hold the actuator, relax the pricing.
		r.pressure = decayPressure(r.pressure)
	default:
		switch cfg.Mode {
		case ModeStep:
			switch {
			case norm > bigError:
				r.x *= 1 - stepFrac
			case norm > 0:
				r.x -= 1
			case norm < -bigError:
				r.x *= 1 + stepFrac
			default:
				r.x += 1
			}
		default: // ModeProportional
			r.x *= 1 - cfg.Gain*norm
		}
		if r.x < float64(cfg.Floor) {
			r.x = float64(cfg.Floor)
			d.Saturated = true
		}
		if r.x > float64(cfg.Ceiling) {
			r.x = float64(cfg.Ceiling)
			d.Saturated = true
		}
		if norm > 0 {
			// Over SLO: integrate delay pricing, capped (anti-windup) so a
			// day-long overload does not price clients out for a week.
			r.pressure = math.Min(pressureMax, r.pressure+pressureGain*norm)
		} else {
			r.pressure = decayPressure(r.pressure)
		}
	}

	// x never leaves [Floor, Ceiling], so neither does its rounding.
	r.limit = int(math.Round(r.x))
	d.Limit = r.limit
	d.Pressure = r.pressure
	return d
}

// normError normalizes and clamps the raw error. The clamp bounds the
// per-tick correction: a p95 four SLOs over the setpoint should not
// command a larger step than one three SLOs over — by then the loop is
// saturated anyway and the clamp keeps the law well-conditioned.
func (r *Regulator) normError(errMS float64) float64 {
	norm := errMS / r.cfg.SLOp95MS
	if norm > 3 {
		norm = 3
	}
	if norm < -1 {
		norm = -1
	}
	return norm
}

// decayPressure relaxes the delay pricing geometrically and snaps the
// tail to exactly zero so a recovered server stops advertising pressure.
func decayPressure(p float64) float64 {
	p *= pressureDecay
	if p < 1e-3 {
		p = 0
	}
	return p
}

// Source supplies the cumulative block-serve histogram each tick;
// service.Server.BlockServeSnapshot is the production implementation.
type Source func() metrics.HistogramSnapshot

// Sink receives the actuation each tick; *service.Server satisfies it.
type Sink interface {
	SetSessionLimit(n int)
	SetAdmissionPressure(p float64)
}

// Runner ties a Regulator to the wall clock: every interval it windows
// the cumulative histogram into the last interval's observations, feeds
// the windowed p95 to the law, and applies the decision to the sink.
type Runner struct {
	Reg      *Regulator
	Interval time.Duration
	Src      Source
	Sink     Sink
	// OnDecision, when non-nil, observes every tick (logging, tests).
	OnDecision func(Decision)

	prev metrics.HistogramSnapshot
}

// Tick performs one windowing + control step; exposed so tests can drive
// the runner without a wall clock.
func (rn *Runner) Tick() Decision {
	cur := rn.Src()
	win := cur.Sub(rn.prev)
	rn.prev = cur
	d := rn.Reg.Step(win.Quantile(0.95), win.Count > 0)
	rn.Sink.SetSessionLimit(d.Limit)
	rn.Sink.SetAdmissionPressure(d.Pressure)
	if rn.OnDecision != nil {
		rn.OnDecision(d)
	}
	return d
}

// Run ticks until the context is cancelled. It applies the regulator's
// initial limit immediately so the configured ceiling is live before the
// first interval elapses.
func (rn *Runner) Run(ctx context.Context) {
	interval := rn.Interval
	if interval <= 0 {
		interval = time.Second
	}
	rn.Sink.SetSessionLimit(rn.Reg.Limit())
	rn.Sink.SetAdmissionPressure(rn.Reg.Pressure())
	rn.prev = rn.Src()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rn.Tick()
		}
	}
}

// Register exposes the regulator's loop state as /metrics gauges: the
// setpoint, the windowed measurement, the error, and both actuators.
func Register(reg *metrics.Registry, r *Regulator) {
	reg.GaugeFunc("wsopt_regulator_slo_p95_ms", "Configured p95 block-serve SLO in milliseconds (the setpoint).", func() float64 {
		return r.Setpoint()
	})
	reg.GaugeFunc("wsopt_regulator_p95_ms", "Windowed p95 block-serve time observed by the last regulator tick, in milliseconds.", func() float64 {
		return r.LastP95()
	})
	reg.GaugeFunc("wsopt_regulator_error_ms", "Setpoint error of the last regulator tick (p95 − SLO), in milliseconds.", func() float64 {
		return r.LastError()
	})
	reg.GaugeFunc("wsopt_regulator_session_limit", "Admitted-session ceiling commanded by the regulator.", func() float64 {
		return float64(r.Limit())
	})
	reg.GaugeFunc("wsopt_regulator_pressure", "Delay-pricing pressure commanded by the regulator.", func() float64 {
		return r.Pressure()
	})
	reg.GaugeFunc("wsopt_regulator_ticks_total", "Regulator ticks since start.", func() float64 {
		return float64(r.Ticks())
	})
}
