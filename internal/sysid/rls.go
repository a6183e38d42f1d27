package sysid

import (
	"fmt"
	"math"

	"wsopt/internal/core"
)

// RLS is a recursive least-squares estimator with a forgetting factor over
// a three-parameter basis, supporting the self-tuning extremum control
// extension the paper sketches for "significantly larger queries"
// (Section IV: "techniques based on recursive least squares estimation
// with forgetting factors seem promising").
type RLS struct {
	kind   ModelKind // ModelQuadratic or ModelParabolic
	lambda float64   // forgetting factor in (0, 1]
	theta  [3]float64
	p      [3][3]float64 // covariance-like matrix
	n      int           // updates applied
}

// NewRLS builds an estimator for the given model family. lambda is the
// forgetting factor: 1 keeps all history, values slightly below 1 (e.g.
// 0.95) discount old measurements so the estimate tracks drifting
// profiles. ModelBest is not supported for recursive estimation.
func NewRLS(kind ModelKind, lambda float64) (*RLS, error) {
	if kind != ModelQuadratic && kind != ModelParabolic {
		return nil, fmt.Errorf("sysid: RLS supports quadratic or parabolic models, got %v", kind)
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("sysid: forgetting factor %g must be in (0, 1]", lambda)
	}
	r := &RLS{kind: kind, lambda: lambda}
	const delta = 1e6 // large initial covariance: uninformative prior
	for i := 0; i < 3; i++ {
		r.p[i][i] = delta
	}
	return r, nil
}

// basis returns the regressor φ(x) for the model family.
func (r *RLS) basis(x float64) [3]float64 {
	if r.kind == ModelParabolic {
		if x == 0 {
			x = math.SmallestNonzeroFloat64
		}
		return [3]float64{1 / x, x, 1}
	}
	return [3]float64{x * x, x, 1}
}

// Update folds one measurement (block size x, response time y) into the
// estimate.
func (r *RLS) Update(x, y float64) {
	phi := r.basis(x)

	// pPhi = P·φ
	var pPhi [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			pPhi[i] += r.p[i][j] * phi[j]
		}
	}
	// denom = λ + φᵀ·P·φ
	denom := r.lambda
	for i := 0; i < 3; i++ {
		denom += phi[i] * pPhi[i]
	}
	if denom == 0 || math.IsNaN(denom) || math.IsInf(denom, 0) {
		return
	}
	// Gain k = P·φ / denom
	var k [3]float64
	for i := 0; i < 3; i++ {
		k[i] = pPhi[i] / denom
	}
	// Innovation e = y − φᵀθ
	e := y
	for i := 0; i < 3; i++ {
		e -= phi[i] * r.theta[i]
	}
	// θ += k·e
	for i := 0; i < 3; i++ {
		r.theta[i] += k[i] * e
	}
	// P = (P − k·(φᵀP)) / λ   (φᵀP = pPhiᵀ by symmetry of P)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r.p[i][j] = (r.p[i][j] - k[i]*pPhi[j]) / r.lambda
		}
	}
	r.n++
}

// Updates returns how many measurements have been folded in.
func (r *RLS) Updates() int { return r.n }

// Model materializes the current estimate as a Model. It returns nil until
// at least three updates have been applied.
func (r *RLS) Model() Model {
	if r.n < 3 {
		return nil
	}
	if r.kind == ModelParabolic {
		return &Parabolic{A: r.theta[0], B: r.theta[1], C: r.theta[2]}
	}
	return &Quadratic{A: r.theta[0], B: r.theta[1], C: r.theta[2]}
}

// Theta returns the current parameter estimate.
func (r *RLS) Theta() [3]float64 { return r.theta }

// SelfTuningConfig parameterizes the self-tuning controller.
type SelfTuningConfig struct {
	// Limits bound every decision.
	Limits core.Limits
	// Kind is the model family estimated recursively (default quadratic).
	Kind ModelKind
	// Lambda is the forgetting factor (default 0.98).
	Lambda float64
	// ReestimatePeriod is how many observed blocks pass between jumps to
	// the re-estimated optimum (default 5).
	ReestimatePeriod int
	// ProbeAmp is the relative amplitude of the persistent excitation
	// around the current decision (default 0.08). Without probing the
	// recursive estimator only ever sees one operating point and the
	// estimate degenerates; with it, the regressors stay informative and
	// the controller can track a moving optimum.
	ProbeAmp float64
}

// SelfTuning is the self-tuning extremum controller: it starts with the
// same even identification sweep as ModelBased, but keeps refining the
// model with every block through RLS with forgetting, periodically moving
// to the freshly estimated optimum. Unlike ModelBased it therefore tracks
// a drifting optimum.
type SelfTuning struct {
	cfg      SelfTuningConfig
	rls      *RLS
	plan     []int
	idx      int
	decision int // current estimated optimum
	size     int // commanded size (decision plus probe)
	seen     int
	probeUp  bool
}

// NewSelfTuning builds the controller.
func NewSelfTuning(cfg SelfTuningConfig) (*SelfTuning, error) {
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.98
	}
	if cfg.ReestimatePeriod < 1 {
		cfg.ReestimatePeriod = 5
	}
	if cfg.ProbeAmp == 0 {
		cfg.ProbeAmp = 0.08
	}
	kind := cfg.Kind
	if kind == ModelBest {
		kind = ModelQuadratic
	}
	rls, err := NewRLS(kind, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	plan, err := SamplePlan(cfg.Limits, DefaultSampleCount)
	if err != nil {
		return nil, err
	}
	return &SelfTuning{cfg: cfg, rls: rls, plan: plan, size: plan[0], decision: plan[0]}, nil
}

// Size implements Controller.
func (s *SelfTuning) Size() int { return s.size }

// Observe implements Controller.
func (s *SelfTuning) Observe(responseTime float64) {
	if math.IsNaN(responseTime) || math.IsInf(responseTime, 0) || responseTime < 0 {
		return
	}
	s.rls.Update(float64(s.size), responseTime)
	s.seen++

	if s.idx < len(s.plan)-1 {
		// Still in the identification sweep.
		s.idx++
		s.size = s.plan[s.idx]
		s.decision = s.size
		return
	}
	if s.seen%s.cfg.ReestimatePeriod == 0 {
		if m := s.rls.Model(); m != nil {
			if opt, ok := m.Optimum(s.cfg.Limits); ok {
				s.decision = s.cfg.Limits.Clamp(int(opt + 0.5))
			}
		}
	}
	// Persistent excitation: alternate small probes around the decision
	// so the recursive estimator keeps seeing informative regressors.
	amp := 1 + s.cfg.ProbeAmp
	if s.probeUp {
		amp = 1 - s.cfg.ProbeAmp
	}
	s.probeUp = !s.probeUp
	s.size = s.cfg.Limits.Clamp(int(float64(s.decision)*amp + 0.5))
}

// Decision returns the current estimated optimum, without the probe
// excursion that Size superimposes.
func (s *SelfTuning) Decision() int { return s.decision }

// Name implements Controller.
func (s *SelfTuning) Name() string { return "self-tuning-" + s.cfg.Kind.String() }

// Estimator exposes the underlying RLS state for tests and reports.
func (s *SelfTuning) Estimator() *RLS { return s.rls }
