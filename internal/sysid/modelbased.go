package sysid

import (
	"fmt"

	"wsopt/internal/core"
)

// ModelKind selects the model family a ModelBased controller fits.
type ModelKind int

const (
	// ModelQuadratic fits Eq. 8.
	ModelQuadratic ModelKind = iota
	// ModelParabolic fits Eq. 9.
	ModelParabolic
	// ModelBest fits both and keeps the better one (smaller SSE,
	// preferring a usable interior optimum).
	ModelBest
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case ModelQuadratic:
		return "quadratic"
	case ModelParabolic:
		return "parabolic"
	case ModelBest:
		return "best"
	default:
		return fmt.Sprintf("model(%d)", int(k))
	}
}

// RefinerFunc builds an extremum controller that takes over after the
// identification phase, starting from the model's estimated optimum. It
// enables the enhanced schemes of Fig. 9 (model + constant / adaptive /
// hybrid gain).
type RefinerFunc func(initialSize int) (core.Controller, error)

// ModelBasedConfig parameterizes a ModelBased controller.
type ModelBasedConfig struct {
	// Limits bound the sampled sizes and the decision.
	Limits core.Limits
	// Kind selects the model family (default quadratic).
	Kind ModelKind
	// Samples is the number of identification samples (default 6).
	Samples int
	// RepeatsPerSample is how many blocks are pulled at each sampled size
	// before averaging; the paper uses one per size and notes it is "very
	// prone to errors", which the reproduction confirms. Default 1.
	RepeatsPerSample int
	// Refine, when non-nil, hands control to the returned extremum
	// controller after the decision, seeded with the model's optimum.
	Refine RefinerFunc
	// ReidentifyThreshold, when positive, enables the paper's suggested
	// heuristic: "the LS may rerun if the values deviate significantly
	// from the derived model". After the decision, measurements keep
	// being compared against the model's prediction; when the median
	// relative residual over ReidentifyWindow recent blocks exceeds the
	// threshold (e.g. 0.5 for 50%), the identification sweep restarts.
	// Incompatible with Refine (the refiner owns the controller then).
	ReidentifyThreshold float64
	// ReidentifyWindow is the residual window length (default 8).
	ReidentifyWindow int
}

// ModelBased is the Section IV controller: it pulls a few blocks at sizes
// spread evenly over the search space, fits a smooth model, decides the
// optimum analytically, and then either holds that size for the rest of
// the query or hands over to a refinement controller.
type ModelBased struct {
	cfg  ModelBasedConfig
	plan []int

	idx     int       // current position in the plan
	reps    int       // measurements taken at plan[idx]
	sumY    float64   // accumulator over repeats
	xs, ys  []float64 // completed identification samples
	decided bool
	size    int
	model   Model
	refiner core.Controller

	residuals  []float64 // recent |y - ŷ|/ŷ after the decision
	reidentify int       // completed re-identification rounds
}

// NewModelBased builds the controller.
func NewModelBased(cfg ModelBasedConfig) (*ModelBased, error) {
	if cfg.Samples == 0 {
		cfg.Samples = DefaultSampleCount
	}
	if cfg.RepeatsPerSample < 1 {
		cfg.RepeatsPerSample = 1
	}
	if cfg.ReidentifyWindow < 1 {
		cfg.ReidentifyWindow = 8
	}
	if cfg.ReidentifyThreshold > 0 && cfg.Refine != nil {
		return nil, fmt.Errorf("sysid: re-identification and refinement are mutually exclusive")
	}
	plan, err := SamplePlan(cfg.Limits, cfg.Samples)
	if err != nil {
		return nil, err
	}
	return &ModelBased{cfg: cfg, plan: plan, size: plan[0]}, nil
}

// Size implements Controller.
func (m *ModelBased) Size() int {
	if m.refiner != nil {
		return m.refiner.Size()
	}
	return m.size
}

// Observe implements Controller.
func (m *ModelBased) Observe(responseTime float64) {
	if m.refiner != nil {
		m.refiner.Observe(responseTime)
		return
	}
	if m.decided {
		// Plain model-based control holds the decision — unless the
		// re-identification heuristic is armed and the world has drifted
		// away from the fitted model.
		if m.cfg.ReidentifyThreshold > 0 && m.model != nil {
			m.watchResidual(responseTime)
		}
		return
	}
	m.sumY += responseTime
	m.reps++
	if m.reps < m.cfg.RepeatsPerSample {
		return
	}
	m.xs = append(m.xs, float64(m.plan[m.idx]))
	m.ys = append(m.ys, m.sumY/float64(m.reps))
	m.sumY, m.reps = 0, 0
	m.idx++
	if m.idx < len(m.plan) {
		m.size = m.plan[m.idx]
		return
	}
	m.decide()
}

// decide fits the configured model and commits to its estimated optimum.
// A failed or degenerate fit falls back to the lower limit, matching the
// paper's observed behaviour.
func (m *ModelBased) decide() {
	m.decided = true
	lo := m.cfg.Limits.Min
	if lo < 1 {
		lo = 1
	}
	var (
		model Model
		err   error
	)
	switch m.cfg.Kind {
	case ModelParabolic:
		model, err = FitParabolic(m.xs, m.ys)
	case ModelBest:
		model, err = FitBest(m.xs, m.ys, m.cfg.Limits)
	default:
		model, err = FitQuadratic(m.xs, m.ys)
	}
	if err != nil {
		m.size = lo
		return
	}
	m.model = model
	opt, ok := model.Optimum(m.cfg.Limits)
	if !ok {
		// Not a useful model: the paper reports the technique "fails to
		// produce a useful model, selecting the lower limit value".
		m.size = lo
	} else {
		m.size = m.cfg.Limits.Clamp(int(opt + 0.5))
	}
	if m.cfg.Refine != nil {
		r, rerr := m.cfg.Refine(m.size)
		if rerr == nil {
			m.refiner = r
		}
	}
}

// watchResidual tracks how far reality has drifted from the fitted model
// and restarts the identification sweep when the median relative residual
// over the window exceeds the threshold.
func (m *ModelBased) watchResidual(y float64) {
	pred := m.model.Eval(float64(m.size))
	if pred <= 0 {
		return
	}
	rel := (y - pred) / pred
	if rel < 0 {
		rel = -rel
	}
	m.residuals = append(m.residuals, rel)
	if len(m.residuals) < m.cfg.ReidentifyWindow {
		return
	}
	if len(m.residuals) > m.cfg.ReidentifyWindow {
		m.residuals = m.residuals[len(m.residuals)-m.cfg.ReidentifyWindow:]
	}
	// Median over the window: robust to single spikes.
	sorted := append([]float64(nil), m.residuals...)
	for i := 1; i < len(sorted); i++ { // insertion sort: window is tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if sorted[len(sorted)/2] <= m.cfg.ReidentifyThreshold {
		return
	}
	// Drift confirmed: rerun the LS identification from scratch.
	m.decided = false
	m.model = nil
	m.xs, m.ys = m.xs[:0], m.ys[:0]
	m.idx, m.reps, m.sumY = 0, 0, 0
	m.size = m.plan[0]
	m.residuals = m.residuals[:0]
	m.reidentify++
}

// Unwrap returns the refiner once the decision handed control to it, nil
// before: from then on its phase and its disturbance reaction are this
// controller's (core.PhaseOf, core.NotifyDisturbance).
func (m *ModelBased) Unwrap() core.Controller { return m.refiner }

// HoldsSize implements core.HoldsSize's capability: it does not promise —
// identification sweeps sizes, and re-identification may start again.
func (m *ModelBased) HoldsSize() bool { return false }

// Reidentifications reports how many times the controller restarted its
// identification sweep due to model drift.
func (m *ModelBased) Reidentifications() int { return m.reidentify }

// Name implements Controller.
func (m *ModelBased) Name() string {
	n := "model-" + m.cfg.Kind.String()
	if m.cfg.Refine != nil {
		n += "+refine"
	}
	return n
}

// Decided reports whether the identification phase has completed.
func (m *ModelBased) Decided() bool { return m.decided }

// Decision returns the block size chosen analytically after identification
// (0 before the decision). When a refiner is active this is the refiner's
// starting point, not its current size.
func (m *ModelBased) Decision() int {
	if !m.decided {
		return 0
	}
	if m.refiner != nil {
		// The starting point handed to the refiner.
		return m.cfg.Limits.Clamp(m.size)
	}
	return m.size
}

// FittedModel returns the model chosen at decision time, or nil when the
// fit failed or has not happened yet.
func (m *ModelBased) FittedModel() Model { return m.model }

// UsefulModel reports whether the decision came from a usable interior
// optimum rather than the lower-limit fallback.
func (m *ModelBased) UsefulModel() bool {
	if !m.decided || m.model == nil {
		return false
	}
	_, ok := m.model.Optimum(m.cfg.Limits)
	return ok
}
