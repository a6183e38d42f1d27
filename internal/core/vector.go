package core

import (
	"fmt"
	"math"

	"wsopt/internal/metrics"
)

// The paper optimizes a single knob — the block size. Section VI notes the
// approach "can be extended to multiple dimensions": the per-tuple cost of
// a transfer also depends on how many parallel block streams pull from the
// service and how deep the client pipelines its prefetching. This file
// lifts the switching extremum controller to that vector
//
//	v = (block size, parallel streams, pipeline depth)
//
// with coordinate descent: each adaptivity step moves exactly one
// dimension, chosen as the currently dominant one (largest measured
// sensitivity of the objective), after an initial probe sweep through all
// dimensions and with a periodic refresh so a dormant dimension's
// sensitivity estimate cannot go permanently stale. The phase-transition
// criterion (Eq. 5) is applied to the vector trajectory: the sign history
// records sign(Δy·Δx) of whichever dimension moved, so steady state means
// the whole vector oscillates around an optimum, not just one coordinate.

// Dim indexes the controlled dimensions of a transfer vector.
type Dim int

const (
	// DimSize is the block size in tuples — the paper's original knob.
	DimSize Dim = iota
	// DimStreams is the number of parallel block streams pulling disjoint
	// cursor ranges of the same query.
	DimStreams
	// DimDepth is the pipeline depth: how many blocks a stream keeps in
	// flight or buffered ahead of the consumer.
	DimDepth
	// DimWindow is the push transport's credit window: how many encoded
	// blocks the server may keep in flight beyond the client's cumulative
	// ack. It is pinned (Limits.Min == Limits.Max) in pull mode, where it
	// has no effect, and unpinned by push runners so the controller can
	// trade window against block size on high-RTT paths.
	DimWindow
	// NumDims is the number of controlled dimensions.
	NumDims = 4
)

// String implements fmt.Stringer for traces and reports.
func (d Dim) String() string {
	switch d {
	case DimSize:
		return "size"
	case DimStreams:
		return "streams"
	case DimDepth:
		return "depth"
	case DimWindow:
		return "window"
	default:
		return fmt.Sprintf("dim(%d)", int(d))
	}
}

// Vector is one concrete operating point: a block size, a parallel stream
// count and a pipeline depth.
type Vector struct {
	Size    int `json:"size"`
	Streams int `json:"streams"`
	Depth   int `json:"depth"`
	// Window is the push credit window. Profiles recorded before the
	// push transport omit it; a zero decodes and clamps to the
	// dimension's lower limit on warm start.
	Window int `json:"window,omitempty"`
}

// Get returns the named coordinate.
func (v Vector) Get(d Dim) int {
	switch d {
	case DimSize:
		return v.Size
	case DimStreams:
		return v.Streams
	case DimDepth:
		return v.Depth
	case DimWindow:
		return v.Window
	}
	return 0
}

// With returns a copy with the named coordinate replaced.
func (v Vector) With(d Dim, val int) Vector {
	switch d {
	case DimSize:
		v.Size = val
	case DimStreams:
		v.Streams = val
	case DimDepth:
		v.Depth = val
	case DimWindow:
		v.Window = val
	}
	return v
}

// String implements fmt.Stringer.
func (v Vector) String() string {
	if v.Window > 1 {
		return fmt.Sprintf("(size=%d, streams=%d, depth=%d, window=%d)", v.Size, v.Streams, v.Depth, v.Window)
	}
	return fmt.Sprintf("(size=%d, streams=%d, depth=%d)", v.Size, v.Streams, v.Depth)
}

// DimConfig tunes one dimension of the vector controller. It mirrors the
// scalar Config: a constant gain for the transient phase, an adaptive-gain
// coefficient for steady state, optional dither, and hard limits.
type DimConfig struct {
	// Initial is the coordinate of the very first request.
	Initial int
	// Limits bound every decision in this dimension.
	Limits Limits
	// B1 is the constant gain (transient step) in this dimension's unit.
	B1 float64
	// B2 scales the adaptive gain g = b2·(Δy/y)·Δx, as in Eq. 3.
	B2 float64
	// DitherFactor scales the Gaussian probe added to steps in this
	// dimension. Zero disables dithering.
	DitherFactor float64
}

func (c DimConfig) validate(d Dim) error {
	if c.Initial < 1 {
		return fmt.Errorf("core: %s initial value %d must be positive", d, c.Initial)
	}
	if !c.Limits.Valid() {
		return fmt.Errorf("core: %s limits [%d, %d] invalid", d, c.Limits.Min, c.Limits.Max)
	}
	if c.B1 <= 0 {
		return fmt.Errorf("core: %s constant gain b1 = %g must be positive", d, c.B1)
	}
	if c.B2 < 0 {
		return fmt.Errorf("core: %s adaptive gain coefficient b2 = %g must be non-negative", d, c.B2)
	}
	if c.DitherFactor < 0 {
		return fmt.Errorf("core: %s dither factor %g must be non-negative", d, c.DitherFactor)
	}
	return nil
}

// pinned reports whether the dimension is frozen at a single admissible
// value. A pinned dimension is excluded from the coordinate-descent
// schedule entirely — never probed, never dominant, never refreshed —
// so a controller with a pinned dimension steps bit-identically to one
// built before the dimension existed.
func (c DimConfig) pinned() bool { return c.Limits.Min == c.Limits.Max }

// span is the width of the admissible range, used to normalize per-dim
// sensitivities so a 100-tuple move and a 1-stream move are comparable.
func (c DimConfig) span() float64 {
	max := c.Limits.Max
	if max == 0 {
		max = c.Initial * 10
	}
	s := float64(max - c.Limits.Min)
	if s < 1 {
		s = 1
	}
	return s
}

// VectorConfig collects the tuning parameters of the multi-dimensional
// controller. The zero value is not usable; start from DefaultVectorConfig.
type VectorConfig struct {
	// Dims configures each controlled dimension, indexed by Dim.
	Dims [NumDims]DimConfig
	// AvgHorizon is n: per-round measurements averaged into one adaptivity
	// step (Eq. 2). Values below 1 mean 1.
	AvgHorizon int
	// CriterionWindow is n': the number of recent adaptivity steps the
	// phase-transition criterion examines (over the vector trajectory).
	CriterionWindow int
	// CriterionThreshold is s in Eq. 5.
	CriterionThreshold int
	// ResetPeriod, when positive, forces the controller back into the
	// transient phase after ResetPeriod steps in steady state, counted from
	// the transition — the vector analogue of the scalar periodic reset.
	ResetPeriod int
	// SensitivityGain is the EWMA coefficient folding each new normalized
	// gradient magnitude into a dimension's sensitivity score, in (0, 1].
	// Zero defaults to 0.5.
	SensitivityGain float64
	// Seed seeds the per-dimension dither RNGs. Equal configurations and
	// seeds behave identically.
	Seed int64
	// Metrics, when non-nil, receives the phase-transition counter.
	Metrics *metrics.Registry
}

// DefaultVectorConfig extends the paper's WAN parameterization to three
// dimensions: the size dimension keeps x0=1000, limits [100, 20000],
// b1=2000, b2=25, df=25; streams sweep 1..16 and depth 1..8 with unit-scale
// gains.
func DefaultVectorConfig() VectorConfig {
	cfg := VectorConfig{
		AvgHorizon:         3,
		CriterionWindow:    5,
		CriterionThreshold: 1,
		SensitivityGain:    0.5,
	}
	cfg.Dims[DimSize] = DimConfig{Initial: 1000, Limits: DefaultLimits, B1: 2000, B2: 25, DitherFactor: 25}
	cfg.Dims[DimStreams] = DimConfig{Initial: 1, Limits: Limits{Min: 1, Max: 16}, B1: 2, B2: 4, DitherFactor: 0}
	cfg.Dims[DimDepth] = DimConfig{Initial: 1, Limits: Limits{Min: 1, Max: 8}, B1: 1, B2: 2, DitherFactor: 0}
	// The window dimension only exists on the push transport; in the
	// default (pull) configuration it is pinned at 1 so the controller's
	// probe/step trajectory is unchanged from the three-dimensional one.
	cfg.Dims[DimWindow] = DimConfig{Initial: 1, Limits: Limits{Min: 1, Max: 1}, B1: 1, B2: 0, DitherFactor: 0}
	return cfg
}

// DefaultPushVectorConfig is DefaultVectorConfig with the credit-window
// dimension unpinned for a push-transport run: window 1..64, starting at
// 4 blocks in flight, with unit-scale gains like the other small
// integer dimensions.
func DefaultPushVectorConfig() VectorConfig {
	cfg := DefaultVectorConfig()
	cfg.Dims[DimWindow] = DimConfig{Initial: 4, Limits: Limits{Min: 1, Max: 64}, B1: 4, B2: 4, DitherFactor: 0}
	return cfg
}

// Validate reports the first configuration problem found, or nil.
func (c VectorConfig) Validate() error {
	for d := Dim(0); d < NumDims; d++ {
		if err := c.Dims[d].validate(d); err != nil {
			return err
		}
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
	if c.SensitivityGain < 0 || c.SensitivityGain > 1 {
		return fmt.Errorf("core: sensitivity gain %g must be in (0, 1]", c.SensitivityGain)
	}
	return nil
}

// VectorController is the coordinate-descent extremum controller over
// (block size, streams, pipeline depth). It implements Controller — Size
// returns the block-size coordinate and Observe consumes the per-tuple
// cost of one transfer round at the full current vector — plus Vector,
// which runners read through VectorOf.
//
// Like the scalar controllers it is not safe for concurrent use; callers
// with parallel streams serialize Observe (one shared controller fed by
// all streams).
type VectorController struct {
	cfg     VectorConfig
	refresh int

	cur     [NumDims]float64 // continuous internal state per dimension
	initial [NumDims]float64 // restored by Reset; updated by WarmStart
	dith    [NumDims]*dither
	avg     *averager

	lastDim   Dim              // dimension moved by the previous decision
	lastDx    float64          // signed move applied to lastDim
	dir       [NumDims]float64 // prevailing direction per dimension (±1)
	probed    [NumDims]bool    // dimension has been stepped at least once
	steppedAt [NumDims]int     // steps at each dimension's last step
	sens      [NumDims]float64 // EWMA sensitivity score per dimension

	phaseMachine // Eq. 5 over the vector trajectory
}

// NewVector builds the multi-dimensional controller.
func NewVector(cfg VectorConfig) (*VectorController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SensitivityGain == 0 {
		cfg.SensitivityGain = 0.5
	}
	// The scheduler revisits the least-recently-stepped dimension every
	// refresh steps, so the sensitivity estimate of a dormant dimension
	// cannot go permanently stale. It only cycles through unpinned
	// dimensions, so the period scales with the active count — a pinned
	// window leaves the three-dimensional cadence untouched.
	active := 0
	for d := Dim(0); d < NumDims; d++ {
		if !cfg.Dims[d].pinned() {
			active++
		}
	}
	refresh := 2 * max(active, 1)
	v := &VectorController{
		cfg:          cfg,
		refresh:      refresh,
		avg:          newAverager(cfg.AvgHorizon),
		phaseMachine: newPhaseMachine(cfg.CriterionWindow, cfg.CriterionThreshold, cfg.ResetPeriod, cfg.Metrics),
	}
	for d := Dim(0); d < NumDims; d++ {
		v.cur[d] = float64(cfg.Dims[d].Limits.Clamp(cfg.Dims[d].Initial))
		v.initial[d] = v.cur[d]
		// Distinct derived seeds keep the per-dimension probe streams
		// independent while the whole controller stays a pure function of
		// (config, seed, observations).
		v.dith[d] = newDither(cfg.Dims[d].DitherFactor, cfg.Seed+int64(d)*1_000_003)
		v.dir[d] = 1
	}
	v.markPinned()
	return v, nil
}

// markPinned pre-marks pinned dimensions as probed so the probe sweep
// and the refresh scheduler never select them.
func (v *VectorController) markPinned() {
	for d := Dim(0); d < NumDims; d++ {
		if v.cfg.Dims[d].pinned() {
			v.probed[d] = true
		}
	}
}

// Vector returns the currently commanded operating point.
func (v *VectorController) Vector() Vector {
	return Vector{
		Size:    v.coord(DimSize),
		Streams: v.coord(DimStreams),
		Depth:   v.coord(DimDepth),
		Window:  v.coord(DimWindow),
	}
}

func (v *VectorController) coord(d Dim) int {
	return v.cfg.Dims[d].Limits.Clamp(round(v.cur[d]))
}

// Size implements Controller: the block-size coordinate.
func (v *VectorController) Size() int { return v.coord(DimSize) }

// Name implements Controller.
func (v *VectorController) Name() string { return "vector-hybrid" }

// Observe implements Controller. The measurement is the objective of one
// transfer round executed at the full current vector — typically the
// per-tuple cost across all parallel streams.
func (v *VectorController) Observe(y float64) {
	if s, ok := v.avg.next(0, y); ok {
		v.step(s)
	}
}

func (v *VectorController) step(s sample) {
	v.steps++
	if s.first {
		// First adaptivity step: no gradient yet. Probe the first
		// dimension upward by its constant gain (Section III-A).
		v.move(DimSize, v.dir[DimSize], v.cfg.Dims[DimSize].B1)
		return
	}

	// Δx is the move the controller applied, not a difference of averaged
	// coordinates: one step moves one dimension.
	dy, dx, my := s.dy, v.lastDx, s.y

	// Sign attribution: the measurement change is credited to the
	// dimension that actually moved. A boundary-clamped (zero) move
	// carries no information, so it neither enters the sign history nor
	// updates the sensitivity.
	if dx != 0 {
		sg := Sign(dy * dx)
		v.pushSign(sg)
		// The paper's direction rule, x_{k+1} = x_k − g·sign(Δy·Δx),
		// becomes the prevailing direction of the dimension that moved.
		v.dir[v.lastDim] = -sg
		v.updateSensitivity(v.lastDim, dy, dx, my)
	}

	// Eq. 5 over the vector trajectory, after the anchored periodic reset.
	switch {
	case v.resetDue():
		v.enterTransient()
	case v.ph == phaseTransient && v.balanced():
		v.enterSteady()
	}

	d := v.chooseDim()
	v.move(d, v.dir[d], v.gain(d, dy, dx, my))
}

// updateSensitivity folds one normalized gradient magnitude into the
// dimension's EWMA score: relative output change per span-relative input
// change, so dimensions with different units compete fairly.
func (v *VectorController) updateSensitivity(d Dim, dy, dx, y float64) {
	if y <= 0 {
		return
	}
	rel := math.Abs(dy/y) / (math.Abs(dx) / v.cfg.Dims[d].span())
	a := v.cfg.SensitivityGain
	v.sens[d] = (1-a)*v.sens[d] + a*rel
}

// chooseDim implements the coordinate-descent schedule: first a probe
// sweep through every dimension (so each has a sensitivity estimate), then
// the dominant dimension, with the least-recently-stepped one revisited
// every refresh steps.
func (v *VectorController) chooseDim() Dim {
	for d := Dim(0); d < NumDims; d++ {
		if !v.probed[d] {
			return d
		}
	}
	if v.steps%v.refresh == 0 {
		return v.stalestDim()
	}
	return v.DominantDim()
}

// DominantDim returns the unpinned dimension with the highest
// sensitivity score — the coordinate the controller currently steps
// outside refresh rounds.
func (v *VectorController) DominantDim() Dim {
	best := Dim(-1)
	for d := Dim(0); d < NumDims; d++ {
		if v.cfg.Dims[d].pinned() {
			continue
		}
		if best < 0 || v.sens[d] > v.sens[best] {
			best = d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func (v *VectorController) stalestDim() Dim {
	best := Dim(-1)
	for d := Dim(0); d < NumDims; d++ {
		if v.cfg.Dims[d].pinned() {
			continue
		}
		if best < 0 || v.steppedAt[d] < v.steppedAt[best] {
			best = d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// gain returns the step magnitude for dimension d: Eq. 4 with dimension
// d's constant gain and an adaptive gain rescaled across dimensions.
func (v *VectorController) gain(d Dim, dy, dx, y float64) float64 {
	dc := v.cfg.Dims[d]
	adaptive := 0.0
	if y > 0 {
		// The gradient was measured along lastDim; rescale its
		// span-relative magnitude into dimension d's units so
		// cross-dimension steps stay proportionate.
		relDx := math.Abs(dx) / v.cfg.Dims[v.lastDim].span()
		adaptive = math.Abs(dc.B2 * dy / y * relDx * dc.span())
	}
	return v.clampGain(dc.B1, adaptive)
}

// move applies one signed step (plus dither) to dimension d and records
// the applied change for the next step's sign attribution.
func (v *VectorController) move(d Dim, dir, g float64) {
	dc := v.cfg.Dims[d]
	before := v.cur[d]
	next := dc.Limits.ClampF(before + dir*g + v.dith[d].next())
	applied := next - before
	if applied == 0 && g > 0 {
		// Bounced off a limit: turn around so the next step in this
		// dimension points back inside the admissible range.
		v.dir[d] = -dir
	}
	v.cur[d] = next
	v.lastDim = d
	v.lastDx = applied
	v.probed[d] = true
	v.steppedAt[d] = v.steps
}

// WarmStart moves the controller's operating point (and the point Reset
// restores) to a historical optimum before the first observation — the
// profile store's warm start. Calling it mid-run additionally clears the
// measurement history, like a disturbance at the new point.
func (v *VectorController) WarmStart(vec Vector) {
	for d := Dim(0); d < NumDims; d++ {
		v.cur[d] = float64(v.cfg.Dims[d].Limits.Clamp(vec.Get(d)))
		v.initial[d] = v.cur[d]
	}
	if v.avg.ready {
		v.Disturb()
	}
}

// Sensitivity returns dimension d's current EWMA sensitivity score, for
// traces and tests.
func (v *VectorController) Sensitivity(d Dim) float64 { return v.sens[d] }

// Reset implements Resetter: all adaptation state is cleared, the vector
// returns to its initial (or warm-started) value, and every dither RNG is
// rewound — a reset controller replays observations bit-identically to a
// fresh one.
func (v *VectorController) Reset() {
	v.avg.reset()
	v.lastDim = 0
	v.lastDx = 0
	v.phaseMachine.reset()
	for d := Dim(0); d < NumDims; d++ {
		v.cur[d] = v.initial[d]
		v.dith[d].rewind()
		v.dir[d] = 1
		v.probed[d] = false
		v.steppedAt[d] = 0
		v.sens[d] = 0
	}
	v.markPinned()
}

// Disturb implements Disturber: the measurement history is invalidated but
// the current vector is kept — the optimum of the new regime is more
// likely near the current operating point than near the initial one.
func (v *VectorController) Disturb() {
	v.avg.reset()
	v.lastDx = 0
	v.enterTransient()
	for d := Dim(0); d < NumDims; d++ {
		v.probed[d] = false
		v.sens[d] = 0
	}
	v.markPinned()
}
