package sysid

import (
	"fmt"
	"math"

	"wsopt/internal/core"
)

// SetpointTracking is the "variable setpoint (optimum tracking)"
// controller family the paper lists among the extremum-control blends
// (Section III): a recursive least-squares estimator maintains the
// analytic optimum x̂*, and a proportional term steers the block size
// toward it:
//
//	x_{k+1} = x_k + κ·(x̂*_k − x_k) + probe
//
// Unlike ModelBased it never freezes, and unlike the switching schemes it
// needs no sign logic: the estimated setpoint moves, the controller
// follows. It realizes the paper's concluding suggestion of "coupling
// system identification techniques with a ... controller, which
// eliminates the need for setting an initial value for the block size".
type SetpointTracking struct {
	cfg  SetpointConfig
	rls  *RLS
	plan []int
	idx  int
	cur  float64
	step int
	up   bool
}

const (
	// kappa is the proportional tracking gain: the fraction of the
	// distance to the estimated optimum covered per adaptivity step.
	kappa = 0.4
	// exploreEvery spaces the wide exploration pulses (5x the probe
	// amplitude, capped at 50%): a narrow probe band around a single
	// operating point leaves the three-parameter estimator
	// ill-conditioned, and the pulse restores identifiability after
	// regime changes.
	exploreEvery = 7
)

// SetpointConfig parameterizes the controller.
type SetpointConfig struct {
	// Limits bound every decision.
	Limits core.Limits
	// Kind is the model family (the zero value selects the quadratic
	// Eq. 8; use ModelParabolic for the physically derived Eq. 9;
	// ModelBest is not recursively estimable and maps to parabolic).
	Kind ModelKind
	// Lambda is the RLS forgetting factor (default 0.97).
	Lambda float64
	// ProbeAmp is the relative persistent-excitation amplitude
	// (default 0.05).
	ProbeAmp float64
}

// NewSetpointTracking builds the controller.
func NewSetpointTracking(cfg SetpointConfig) (*SetpointTracking, error) {
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.97
	}
	if cfg.ProbeAmp == 0 {
		cfg.ProbeAmp = 0.05
	}
	if cfg.ProbeAmp < 0 || cfg.ProbeAmp >= 1 {
		return nil, fmt.Errorf("sysid: probe amplitude %g must be in [0, 1)", cfg.ProbeAmp)
	}
	kind := cfg.Kind
	if kind == ModelBest {
		kind = ModelParabolic
	}
	rls, err := NewRLS(kind, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	plan, err := SamplePlan(cfg.Limits, DefaultSampleCount)
	if err != nil {
		return nil, err
	}
	return &SetpointTracking{cfg: cfg, rls: rls, plan: plan, cur: float64(plan[0])}, nil
}

// Size implements Controller.
func (s *SetpointTracking) Size() int { return s.cfg.Limits.Clamp(int(s.cur + 0.5)) }

// Observe implements Controller.
func (s *SetpointTracking) Observe(responseTime float64) {
	if math.IsNaN(responseTime) || math.IsInf(responseTime, 0) || responseTime < 0 {
		return
	}
	s.rls.Update(float64(s.Size()), responseTime)
	s.step++

	if s.idx < len(s.plan)-1 {
		s.idx++
		s.cur = float64(s.plan[s.idx])
		return
	}
	next := s.cur
	if m := s.rls.Model(); m != nil {
		if target, ok := m.Optimum(s.cfg.Limits); ok {
			next = s.cur + kappa*(target-s.cur)
		}
		// An unusable estimate holds position — but keeps probing below,
		// so the estimator stays excited and can recover.
	}
	probe := s.cfg.ProbeAmp
	if s.step%exploreEvery == 0 {
		probe = math.Min(0.5, probe*5)
	}
	amp := 1 + probe
	if s.up {
		amp = 1 - probe
	}
	s.up = !s.up
	s.cur = s.cfg.Limits.ClampF(next * amp)
}

// Name implements Controller.
func (s *SetpointTracking) Name() string { return "setpoint-tracking" }

// Setpoint returns the current estimated optimum, or 0 when the model is
// not yet usable.
func (s *SetpointTracking) Setpoint() int {
	m := s.rls.Model()
	if m == nil {
		return 0
	}
	if opt, ok := m.Optimum(s.cfg.Limits); ok {
		return s.cfg.Limits.Clamp(int(opt + 0.5))
	}
	return 0
}

// Estimator exposes the underlying RLS state.
func (s *SetpointTracking) Estimator() *RLS { return s.rls }
