// Package core implements the paper's runtime block-size controllers:
// switching extremum control with constant gain, adaptive gain, the novel
// hybrid controller (constant gain in the transient phase, adaptive gain in
// steady state), the MIMD multiplicative baseline, and a static
// (fixed-size) baseline.
//
// The control loop mirrors Algorithm 1 of the paper: the client repeatedly
// asks the controller for the next block size, pulls a block of that size
// from the web service, measures the response time, and feeds it back:
//
//	ctl := core.NewHybrid(cfg)
//	for !done {
//		size := ctl.Size()
//		y := transfer(size) // response time of this block
//		ctl.Observe(y)
//	}
//
// All controllers average measurements over a configurable horizon n before
// taking an "adaptivity step" (Eq. 2 of the paper), clamp decisions to
// [MinSize, MaxSize], and optionally superimpose a Gaussian dither signal so
// the block-size space keeps being probed while the optimum drifts.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"wsopt/internal/metrics"
)

// Controller decides the size of the next data block to pull from the web
// service. Implementations are not safe for concurrent use; each query
// execution owns one controller.
type Controller interface {
	// Size returns the block size (in tuples) to use for the next request.
	// It is stable between calls to Observe.
	Size() int
	// Observe records the response time of the block just transferred at
	// the current size and advances the control law. The unit of the
	// response time does not matter as long as it is consistent
	// (the reference experiments use milliseconds).
	Observe(responseTime float64)
	// Name returns a short identifier used in experiment reports.
	Name() string
}

// Resetter is implemented by controllers whose internal adaptation state can
// be cleared without changing their configuration, e.g. between queries.
type Resetter interface {
	Reset()
}

// Disturber is implemented by controllers that can react to an external
// disturbance — an event that invalidates the measurement history without
// invalidating the current operating point, such as a session failover to
// another replica. Unlike Reset, Disturb keeps the current block size and
// only re-enters the search: the optimum for the new regime is more likely
// near the current size than near the initial one.
type Disturber interface {
	Disturb()
}

// A wrapper — a supervisor, a model-based start, a tracing shim — exposes
// the controller it currently drives through one method,
//
//	Unwrap() Controller
//
// (nil while it drives none), and forwards no capability itself.
// NotifyDisturbance, PhaseOf, VectorOf and HoldsSize are the four ways a
// runner reaches a capability, and inner is how all four walk the chain.

// inner returns the controller ctl wraps, nil when it wraps none.
func inner(ctl Controller) Controller {
	if u, ok := ctl.(interface{ Unwrap() Controller }); ok {
		return u.Unwrap()
	}
	return nil
}

// NotifyDisturbance delivers a disturbance to every Disturber on ctl's
// chain — a supervisor re-baselines and the controller it drives re-enters
// its search. It returns whether any controller reacted. The reason is
// informational only; it keeps call sites self-documenting.
func NotifyDisturbance(ctl Controller, reason string) (reacted bool) {
	_ = reason
	for c := ctl; c != nil; c = inner(c) {
		if d, ok := c.(Disturber); ok {
			d.Disturb()
			reacted = true
		}
	}
	return reacted
}

// PhaseOf reports the operating phase of the first controller on ctl's
// chain that has one, for traces and events: "transient" or "steady" for
// the switching extremum family and the vector controller, "" when
// nothing on the chain has phases.
func PhaseOf(ctl Controller) string {
	for c := ctl; c != nil; c = inner(c) {
		if s, ok := c.(interface{ InSteadyState() bool }); ok {
			if s.InSteadyState() {
				return phaseSteady.String()
			}
			return phaseTransient.String()
		}
	}
	return ""
}

// VectorOf is the operating point ctl commands for the next transfer: the
// Vector() of the first controller on its chain that has one, else ctl's
// block size on one stream at depth 1. Window 0 means the controller has
// no credit-window knob and the runner's configured default applies.
func VectorOf(ctl Controller) Vector {
	for c := ctl; c != nil; c = inner(c) {
		if v, ok := c.(interface{ Vector() Vector }); ok {
			return v.Vector()
		}
	}
	return Vector{Size: ctl.Size(), Streams: 1, Depth: 1}
}

// HoldsSize reports whether ctl promises that every pull to come asks
// for the size it asks for now — the promise that lets a tier read the
// next block ahead at that size. The first controller on its chain with
// an opinion (a HoldsSize() bool method) answers: Static holds, a
// wrapper that may hand over to another size says no. A chain with no
// opinion promises nothing.
func HoldsSize(ctl Controller) bool {
	for c := ctl; c != nil; c = inner(c) {
		if h, ok := c.(interface{ HoldsSize() bool }); ok {
			return h.HoldsSize()
		}
	}
	return false
}

// Limits bound the block sizes a controller may emit. The paper imposes
// upper and lower limits "to avoid overshooting with detrimental effects"
// (Section III-A).
type Limits struct {
	Min int // smallest admissible block size, in tuples
	Max int // largest admissible block size, in tuples
}

// DefaultLimits matches the paper's WAN setup: 100 to 20,000 tuples.
var DefaultLimits = Limits{Min: 100, Max: 20000}

// Clamp forces size into [Min, Max]. A zero-valued Limits applies only the
// structural lower bound of one tuple.
func (l Limits) Clamp(size int) int {
	if size < 1 {
		size = 1
	}
	if l.Min > 0 && size < l.Min {
		size = l.Min
	}
	if l.Max > 0 && size > l.Max {
		size = l.Max
	}
	return size
}

// ClampF is Clamp over the controller's continuous internal state.
// Non-finite inputs (a controller fed degenerate measurements) collapse to
// the lower bound rather than poisoning the state.
func (l Limits) ClampF(size float64) float64 {
	if math.IsNaN(size) {
		size = 1
	}
	if size < 1 {
		size = 1
	}
	if l.Min > 0 && size < float64(l.Min) {
		size = float64(l.Min)
	}
	if l.Max > 0 && size > float64(l.Max) {
		size = float64(l.Max)
	}
	return size
}

// Valid reports whether the limits describe a non-empty range.
func (l Limits) Valid() bool {
	return l.Min >= 0 && (l.Max == 0 || l.Max >= l.Min)
}

// TransitionCriterion selects how the hybrid controller detects the end of
// the transient phase.
type TransitionCriterion int

const (
	// CriterionSignBalance is Eq. 5 of the paper: steady state is entered
	// when the signs of Δy·Δx over the last n' adaptivity steps are
	// balanced (|Σ sign| <= s), i.e. the constant-gain controller has begun
	// oscillating around the optimum in a saw-tooth manner.
	CriterionSignBalance TransitionCriterion = iota
	// CriterionWindowedMean is Eq. 6 of the paper: steady state is entered
	// when the mean block size over two consecutive disjoint windows of
	// length n' differs by at most a threshold. The paper found this
	// criterion detects the end of the transient late and performs 7.6–10%
	// worse than CriterionSignBalance.
	CriterionWindowedMean
)

// String implements fmt.Stringer for reports.
func (c TransitionCriterion) String() string {
	switch c {
	case CriterionSignBalance:
		return "eq5-sign-balance"
	case CriterionWindowedMean:
		return "eq6-windowed-mean"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// Config collects the tuning parameters shared by the switching extremum
// controllers. The zero value is not usable; start from DefaultConfig.
type Config struct {
	// InitialSize is the block size of the very first request
	// (paper default: a conservative 1000 tuples).
	InitialSize int
	// Limits bound every decision.
	Limits Limits
	// B1 is the constant gain: the fixed step, in tuples, of the
	// constant-gain policy and of the hybrid's transient phase
	// (paper: 2000 for WAN, 1200 for conf1.2 and the LAN setups).
	B1 float64
	// B2 scales the adaptive gain g = b2·(Δy/y)·Δx (paper default 25).
	B2 float64
	// DitherFactor df scales the Gaussian dither d(k) = df·w(k),
	// w ~ N(0,1), added to every adaptivity step so the controller keeps
	// probing (paper default 25). Zero disables dithering.
	DitherFactor float64
	// AvgHorizon is n: the number of per-block measurements averaged into
	// one adaptivity step (paper default 3). Values below 1 mean 1.
	AvgHorizon int
	// CriterionWindow is n': the number of recent adaptivity steps
	// examined by the phase-transition criterion (paper default 5).
	CriterionWindow int
	// CriterionThreshold is s in Eq. 5 (paper default 1; its parity should
	// match CriterionWindow's).
	CriterionThreshold int
	// Criterion selects Eq. 5 (default) or Eq. 6 for the hybrid.
	Criterion TransitionCriterion
	// Eq6Threshold overrides the windowed-mean closeness threshold of
	// Eq. 6. When zero, b1/(n'-1) is used. (The published formula's
	// threshold is garbled by typesetting; see DESIGN.md.)
	Eq6Threshold float64
	// AllowSwitchBack enables the second hybrid flavor ("hybrid-s"): the
	// controller may fall back from adaptive to constant gain when the
	// sign statistic indicates a consistent drift. The paper found this
	// flavor less stable.
	AllowSwitchBack bool
	// ResetPeriod, when positive, forces the hybrid controller back into
	// the transient (constant-gain) phase after it has spent ResetPeriod
	// adaptivity steps in steady state, counted from the phase transition.
	// The paper suggests this for long-lived queries whose profile
	// switches at runtime (Fig. 8; period 50). It never fires while the
	// controller is still transient — clearing the criterion history
	// mid-search would prevent steady-state detection outright whenever
	// ResetPeriod ≤ CriterionWindow.
	ResetPeriod int
	// Seed seeds the controller's private dither RNG. Controllers with
	// equal configurations and seeds behave identically.
	Seed int64
	// Metrics, when non-nil, receives the controller's phase-transition
	// counter (wsopt_core_phase_transitions_total). Decisions themselves
	// are traced by the client's event log (client.BlockEvent).
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's WAN parameterization: x0=1000,
// limits [100, 20000], b1=2000, b2=25, df=25, n=3, n'=5, s=1, Eq. 5.
func DefaultConfig() Config {
	return Config{
		InitialSize:        1000,
		Limits:             DefaultLimits,
		B1:                 2000,
		B2:                 25,
		DitherFactor:       25,
		AvgHorizon:         3,
		CriterionWindow:    5,
		CriterionThreshold: 1,
		Criterion:          CriterionSignBalance,
	}
}

// Validate reports the first configuration problem found, or nil.
func (c Config) Validate() error {
	if c.InitialSize < 1 {
		return fmt.Errorf("core: initial size %d must be positive", c.InitialSize)
	}
	if !c.Limits.Valid() {
		return fmt.Errorf("core: invalid limits [%d, %d]", c.Limits.Min, c.Limits.Max)
	}
	if c.B1 <= 0 {
		return fmt.Errorf("core: constant gain b1 = %g must be positive", c.B1)
	}
	if c.B2 < 0 {
		return fmt.Errorf("core: adaptive gain coefficient b2 = %g must be non-negative", c.B2)
	}
	if c.DitherFactor < 0 {
		return fmt.Errorf("core: dither factor %g must be non-negative", c.DitherFactor)
	}
	if c.CriterionWindow < 1 {
		return fmt.Errorf("core: criterion window n' = %d must be positive", c.CriterionWindow)
	}
	if c.CriterionThreshold < 0 {
		return fmt.Errorf("core: criterion threshold s = %d must be non-negative", c.CriterionThreshold)
	}
	if c.ResetPeriod < 0 {
		return fmt.Errorf("core: reset period %d must be non-negative", c.ResetPeriod)
	}
	return nil
}

// Sign is the paper's sign() function: 1 for positive arguments, -1
// otherwise (including zero).
func Sign(v float64) float64 {
	if v > 0 {
		return 1
	}
	return -1
}

// dither produces the Gaussian probe signal d(k) = df·w(k).
type dither struct {
	factor float64
	seed   int64
	rng    *rand.Rand
}

func newDither(factor float64, seed int64) *dither {
	return &dither{factor: factor, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next dither value; zero when dithering is disabled.
func (d *dither) next() float64 {
	if d.factor == 0 {
		return 0
	}
	return d.factor * d.rng.NormFloat64()
}

// rewind restarts the probe stream from its seed, so a reset controller
// draws exactly the same dither sequence as a freshly constructed one —
// part of the determinism contract Reset promises.
func (d *dither) rewind() {
	d.rng = rand.New(rand.NewSource(d.seed))
}

// averager is the measurement front-end every stepping controller shares:
// it drops broken measurements, averages per-block (x, y) over n samples —
// the pre-filter of Eq. 2 — and remembers the previous step's means, so a
// step sees the change (Δx, Δy) the control laws are written in.
type averager struct {
	n            int
	sumX, sumY   float64
	count        int
	lastX, lastY float64
	ready        bool // lastX, lastY hold a completed step
}

func newAverager(n int) *averager {
	if n < 1 {
		n = 1
	}
	return &averager{n: n}
}

// add records one measurement. When the horizon fills, it returns the means
// and true, and restarts the window. A broken measurement (failed request,
// clock skew: NaN, infinite or negative) is dropped rather than poisoning
// the averaged state.
func (a *averager) add(x, y float64) (mx, my float64, full bool) {
	if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
		return 0, 0, false
	}
	a.sumX += x
	a.sumY += y
	a.count++
	if a.count < a.n {
		return 0, 0, false
	}
	mx = a.sumX / float64(a.count)
	my = a.sumY / float64(a.count)
	a.sumX, a.sumY, a.count = 0, 0, 0
	a.lastX, a.lastY = mx, my
	a.ready = true
	return mx, my, true
}

// sample is the input of one adaptivity step.
type sample struct {
	x, y   float64 // the window's means x̄_k, ȳ_k
	dx, dy float64 // their change since the previous step
	first  bool    // there is no previous step, so no Δ yet
}

// next is add in the form the control laws consume: it reports a step when
// the horizon fills.
func (a *averager) next(x, y float64) (s sample, ok bool) {
	prevX, prevY, first := a.lastX, a.lastY, !a.ready
	mx, my, full := a.add(x, y)
	if !full {
		return sample{}, false
	}
	if first {
		return sample{x: mx, y: my, first: true}, true
	}
	return sample{x: mx, y: my, dx: mx - prevX, dy: my - prevY}, true
}

// reset clears any partially filled window and the last emitted means, so
// a reset averager is indistinguishable from a freshly constructed one.
func (a *averager) reset() {
	*a = averager{n: a.n}
}

// round converts the continuous internal state to a concrete tuple count.
func round(x float64) int {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return int(math.Round(x))
}
