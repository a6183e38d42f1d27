package core

import "math"

// gainLaw selects the control law of a switching extremum controller.
type gainLaw int

const (
	lawConstant gainLaw = iota // g = b1 (Eq. 1 with constant gain)
	lawAdaptive                // g = |b2·(Δy/y)·Δx| (Eq. 3)
	lawHybrid                  // Eq. 4: constant in transient, adaptive in steady state
	lawAIMD                    // +b1 after an improving move, ×decrease after a degrading one
)

// extremum is the shared implementation of the switching extremum
// controllers (Eqs. 1–5 of the paper). The concrete constructors select the
// gain law.
type extremum struct {
	cfg      Config
	law      gainLaw
	decrease float64 // lawAIMD's multiplicative cut

	avg  *averager
	dith *dither
	cur  float64 // current commanded block size (continuous state)

	phaseMachine           // drives lawHybrid only; the other laws stay transient
	xbarHist     []float64 // recent averaged block sizes, for Eq. 6 and parking
}

func newExtremum(cfg Config, law gainLaw) (*extremum, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &extremum{
		cfg:          cfg,
		law:          law,
		avg:          newAverager(cfg.AvgHorizon),
		dith:         newDither(cfg.DitherFactor, cfg.Seed),
		cur:          float64(cfg.Limits.Clamp(cfg.InitialSize)),
		phaseMachine: newPhaseMachine(cfg.CriterionWindow, cfg.CriterionThreshold, cfg.ResetPeriod, cfg.Metrics),
	}, nil
}

// Size implements Controller.
func (e *extremum) Size() int { return round(e.cur) }

// Observe implements Controller: it feeds one per-block measurement into
// the averaging pre-filter and, when the horizon fills, takes one
// adaptivity step.
func (e *extremum) Observe(responseTime float64) {
	if s, ok := e.avg.next(e.cur, responseTime); ok {
		e.step(s)
	}
}

// step performs one adaptivity step on averaged measurements.
func (e *extremum) step(s sample) {
	e.steps++
	if s.first {
		// The formulas take effect from the second adaptivity step; in the
		// first, the controller increases the block by b1 (Section III-A).
		e.setSize(e.cur + e.cfg.B1 + e.dith.next())
		return
	}
	sg := Sign(s.dy * s.dx)
	e.pushSign(sg)
	e.pushXbar(s.x)
	if e.law == lawHybrid && e.updatePhase() {
		// A phase transition just parked the controller at the center of
		// the saw-tooth; keep that decision for the next block.
		return
	}
	next := e.cur - e.gain(s)*sg
	if e.law == lawAIMD && sg > 0 {
		next = e.cur * e.decrease
	}
	e.setSize(next + e.dith.next())
}

// gain returns the step magnitude for the current law and phase.
func (e *extremum) gain(s sample) float64 {
	adaptive := 0.0
	if s.y > 0 {
		adaptive = math.Abs(e.cfg.B2 * s.dy / s.y * s.dx)
	}
	switch e.law {
	case lawAdaptive:
		return adaptive
	case lawHybrid:
		return e.clampGain(e.cfg.B1, adaptive)
	}
	return e.cfg.B1
}

func (e *extremum) setSize(x float64) {
	e.cur = e.cfg.Limits.ClampF(x)
}

func (e *extremum) pushXbar(x float64) {
	e.xbarHist = append(e.xbarHist, x)
	if n := 2 * e.window; len(e.xbarHist) > n {
		e.xbarHist = e.xbarHist[len(e.xbarHist)-n:]
	}
}

// updatePhase applies the phase-transition logic of the hybrid controller:
// the optional periodic reset for long-lived queries (Fig. 8), the
// transition criterion (Eq. 5 or Eq. 6) and the optional switch-back of
// the "hybrid-s" flavor. It reports whether the transition parked the
// controller at a new block size that should stand for the next step.
func (e *extremum) updatePhase() bool {
	switch {
	case e.resetDue():
		e.enterTransient()
		e.xbarHist = e.xbarHist[:0]
	case e.ph == phaseTransient && e.steadyStateDetected():
		e.enterSteady()
		// The saw-tooth of the constant-gain phase straddles the
		// stability point; its center — the mean recent decision — is
		// the best estimate of the optimum, while the current value
		// is by construction an extreme of the oscillation. Park at
		// the center.
		if n := e.window; len(e.xbarHist) >= n {
			e.setSize(mean(e.xbarHist[len(e.xbarHist)-n:]))
			return true
		}
	case e.ph == phaseSteady && e.cfg.AllowSwitchBack && e.driftDetected():
		e.enterTransient()
	}
	return false
}

// steadyStateDetected evaluates the configured transition criterion.
func (e *extremum) steadyStateDetected() bool {
	if e.cfg.Criterion != CriterionWindowedMean {
		return e.balanced()
	}
	// Eq. 6: the mean block size over two consecutive disjoint windows
	// of length n' is (almost) unchanged.
	n := e.window
	if len(e.xbarHist) < 2*n {
		return false
	}
	h := e.xbarHist[len(e.xbarHist)-2*n:]
	return math.Abs(mean(h[n:])-mean(h[:n])) <= e.eq6Threshold()
}

// driftDetected reports a consistent drift of the sign statistic: all n'
// recent steps move the same way, which the hybrid-s flavor takes as the
// optimum having moved (re-entering the transient phase).
func (e *extremum) driftDetected() bool {
	return len(e.signHist) >= e.window && math.Abs(sum(e.signHist)) >= float64(e.window)
}

func (e *extremum) eq6Threshold() float64 {
	if e.cfg.Eq6Threshold > 0 {
		return e.cfg.Eq6Threshold
	}
	den := float64(e.window - 1)
	if den <= 0 {
		den = 1
	}
	return e.cfg.B1 / den
}

// Reset implements Resetter: it clears all adaptation state while keeping
// the configuration, returning the controller to its initial block size.
// The dither RNG is rewound to its seed, so a reset controller is
// bit-identical to a freshly constructed one — replaying the same
// observations reproduces the same decisions (the determinism contract
// experiment runs rely on).
func (e *extremum) Reset() {
	e.avg.reset()
	e.dith.rewind()
	e.cur = float64(e.cfg.Limits.Clamp(e.cfg.InitialSize))
	e.phaseMachine.reset()
	e.xbarHist = e.xbarHist[:0]
}

// Disturb implements Disturber: an external disturbance (e.g. a session
// failover to a different replica) invalidated the measurement history, so
// the controller re-enters the transient search phase — but keeps the
// current block size, which is a far better starting point for the new
// regime than the initial one. Compare Reset, which discards both.
func (e *extremum) Disturb() {
	e.avg.reset()
	e.enterTransient()
	e.xbarHist = e.xbarHist[:0]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Constant is the constant-gain switching extremum controller: the step is
// always b1 tuples (plus dither); only its direction adapts (Eq. 1 with
// g = b1). It converges from far away but oscillates around the optimum.
type Constant struct{ extremum }

// NewConstant builds a constant-gain controller.
func NewConstant(cfg Config) (*Constant, error) {
	e, err := newExtremum(cfg, lawConstant)
	if err != nil {
		return nil, err
	}
	return &Constant{extremum: *e}, nil
}

// Name implements Controller.
func (c *Constant) Name() string { return "constant-gain" }

// Adaptive is the adaptive-gain switching extremum controller: the step is
// proportional to the product of the relative performance change and the
// block-size change (Eq. 3). Accurate near the optimum, fragile far away.
type Adaptive struct{ extremum }

// NewAdaptive builds an adaptive-gain controller.
func NewAdaptive(cfg Config) (*Adaptive, error) {
	e, err := newExtremum(cfg, lawAdaptive)
	if err != nil {
		return nil, err
	}
	return &Adaptive{extremum: *e}, nil
}

// Name implements Controller.
func (a *Adaptive) Name() string { return "adaptive-gain" }

// Hybrid is the paper's novel controller (Eq. 4): constant gain during the
// transient phase, adaptive gain once the phase-transition criterion
// declares steady state. Optional flavors: switch-back ("hybrid-s") and
// periodic reset for long-lived queries.
type Hybrid struct{ extremum }

// NewHybrid builds a hybrid controller.
func NewHybrid(cfg Config) (*Hybrid, error) {
	e, err := newExtremum(cfg, lawHybrid)
	if err != nil {
		return nil, err
	}
	return &Hybrid{extremum: *e}, nil
}

// Name implements Controller.
func (h *Hybrid) Name() string {
	switch {
	case h.cfg.ResetPeriod > 0:
		return "hybrid-periodic-reset"
	case h.cfg.AllowSwitchBack:
		return "hybrid-s"
	case h.cfg.Criterion == CriterionWindowedMean:
		return "hybrid-eq6"
	default:
		return "hybrid"
	}
}
