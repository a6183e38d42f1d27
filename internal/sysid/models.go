// Package sysid implements the paper's model-based solution (Section IV):
// online system identification of the response-time profile from a handful
// of samples, least-squares fitting to a quadratic (Eq. 8) or parabolic
// (Eq. 9) model, analytic estimation of the optimum block size, and the
// combination of that estimate with the switching extremum controllers
// (Fig. 9). A recursive least-squares estimator with a forgetting factor
// supports the self-tuning extension sketched in the paper.
package sysid

import (
	"errors"
	"fmt"
	"math"

	"wsopt/internal/core"
)

// ErrInsufficientData is returned by the fitting functions when fewer
// samples than model parameters are supplied.
var ErrInsufficientData = errors.New("sysid: need at least as many samples as model parameters")

// Model is a fitted smooth approximation of the response-time profile
// y = f(x) over block sizes x.
type Model interface {
	// Eval returns the model's predicted response time at block size x.
	Eval(x float64) float64
	// Optimum returns the model's estimate of the optimal block size
	// within limits. ok is false when the fit failed to produce a useful
	// model (e.g. wrong-sign coefficients), in which case the paper's
	// observed behaviour is a fallback to the lower limit.
	Optimum(limits core.Limits) (x float64, ok bool)
	// Coefficients returns the fitted parameters for reports.
	Coefficients() []float64
	// Name identifies the model family in reports.
	Name() string
}

// Quadratic is the typical quadratic model of Eq. 8:
// y = a·x² + b·x + c, capturing the concave effect of the profiles.
type Quadratic struct {
	A, B, C float64
}

// Eval implements Model.
func (q *Quadratic) Eval(x float64) float64 { return q.A*x*x + q.B*x + q.C }

// Optimum implements Model. For a convex fit (A > 0) the vertex −B/(2A) is
// returned, clamped into the limits. A non-convex fit has no interior
// minimum; the boundary with the smaller predicted time is returned with
// ok = false, signalling a not-useful model.
func (q *Quadratic) Optimum(limits core.Limits) (float64, bool) {
	lo, hi := boundsOf(limits)
	if q.A > 0 {
		v := -q.B / (2 * q.A)
		if v < lo {
			// An interior optimum below the feasible range is
			// indistinguishable from a monotonically increasing profile:
			// the technique "selects the lower limit value", the paper's
			// failure mode.
			return lo, false
		}
		return clampF(v, lo, hi), true
	}
	if q.Eval(lo) <= q.Eval(hi) {
		return lo, false
	}
	return hi, false
}

// Coefficients implements Model.
func (q *Quadratic) Coefficients() []float64 { return []float64{q.A, q.B, q.C} }

// Name implements Model.
func (q *Quadratic) Name() string { return "quadratic" }

// String renders the fitted polynomial.
func (q *Quadratic) String() string {
	return fmt.Sprintf("y = %.6g·x² + %.6g·x + %.6g", q.A, q.B, q.C)
}

// Parabolic is the physically derived model of Eq. 9:
// y = a/x + b·x + c. The a/x term is the per-block latency overhead
// amortized over the block, the b·x term the per-tuple buffering and
// processing cost that grows with the block.
type Parabolic struct {
	A, B, C float64
}

// Eval implements Model. Eval(0) is +Inf by convention.
func (p *Parabolic) Eval(x float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return p.A/x + p.B*x + p.C
}

// Optimum implements Model. With both A and B positive the interior
// minimum is sqrt(A/B). Otherwise the model is not useful: the paper
// observed the parabolic fit "fails to produce a useful model, selecting
// the lower limit value" in several conf1.3/conf2.2 runs; we reproduce
// that by returning the lower limit with ok = false.
func (p *Parabolic) Optimum(limits core.Limits) (float64, bool) {
	lo, hi := boundsOf(limits)
	if p.A > 0 && p.B > 0 {
		v := math.Sqrt(p.A / p.B)
		if v < lo {
			// See Quadratic.Optimum: a sub-range optimum is the paper's
			// "selects the lower limit value" failure.
			return lo, false
		}
		return clampF(v, lo, hi), true
	}
	if p.A <= 0 && p.B > 0 {
		// Pure increasing cost: smallest block wins.
		return lo, false
	}
	if p.A > 0 && p.B <= 0 {
		// Monotonically decreasing: largest block wins, still flagged as a
		// degenerate (boundary) decision.
		return hi, false
	}
	return lo, false
}

// Coefficients implements Model.
func (p *Parabolic) Coefficients() []float64 { return []float64{p.A, p.B, p.C} }

// Name implements Model.
func (p *Parabolic) Name() string { return "parabolic" }

// String renders the fitted curve.
func (p *Parabolic) String() string {
	return fmt.Sprintf("y = %.6g/x + %.6g·x + %.6g", p.A, p.B, p.C)
}

// FitQuadratic least-squares fits Eq. 8 to the samples. xs and ys must have
// equal length of at least 3 distinct block sizes.
func FitQuadratic(xs, ys []float64) (*Quadratic, error) {
	if err := checkSamples(xs, ys, 3); err != nil {
		return nil, err
	}
	coef, err := fit3(xs, ys, func(x float64) [3]float64 { return [3]float64{x * x, x, 1} })
	if err != nil {
		return nil, fmt.Errorf("sysid: quadratic fit: %w", err)
	}
	return &Quadratic{A: coef[0], B: coef[1], C: coef[2]}, nil
}

// FitParabolic least-squares fits Eq. 9 to the samples. All block sizes
// must be strictly positive.
func FitParabolic(xs, ys []float64) (*Parabolic, error) {
	if err := checkSamples(xs, ys, 3); err != nil {
		return nil, err
	}
	for _, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("sysid: parabolic fit requires positive block sizes, got %g", x)
		}
	}
	coef, err := fit3(xs, ys, func(x float64) [3]float64 { return [3]float64{1 / x, x, 1} })
	if err != nil {
		return nil, fmt.Errorf("sysid: parabolic fit: %w", err)
	}
	return &Parabolic{A: coef[0], B: coef[1], C: coef[2]}, nil
}

// fit3 least-squares fits ys ≈ coef·basis(x) through the normal
// equations (AᵀA)·coef = Aᵀy, A's rows being basis(xs[k]), solved by
// Gaussian elimination with partial pivoting. Every sum runs over the
// samples in order, so the coefficients do not depend on how the loops
// nest. A rank-deficient design (e.g. duplicated sample points) leaves a
// pivot under 1e-12 and is refused.
func fit3(xs, ys []float64, basis func(x float64) [3]float64) ([3]float64, error) {
	var ata [3][3]float64
	var atb [3]float64
	for k, x := range xs {
		row := basis(x)
		for i, ri := range row {
			if ri != 0 {
				for j, rj := range row {
					ata[i][j] += ri * rj
				}
			}
			atb[i] += ri * ys[k]
		}
	}
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(ata[pivot][col]) < 1e-12 {
			return [3]float64{}, errors.New("singular normal equations")
		}
		ata[pivot], ata[col] = ata[col], ata[pivot]
		atb[pivot], atb[col] = atb[col], atb[pivot]
		for r := col + 1; r < 3; r++ {
			f := ata[r][col] / ata[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < 3; c++ {
				ata[r][c] -= f * ata[col][c]
			}
			atb[r] -= f * atb[col]
		}
	}
	var coef [3]float64
	for i := 2; i >= 0; i-- {
		sum := atb[i]
		for j := i + 1; j < 3; j++ {
			sum -= ata[i][j] * coef[j]
		}
		coef[i] = sum / ata[i][i]
	}
	return coef, nil
}

// SSE returns the sum of squared residuals of the model over the samples,
// the selection statistic used when choosing the better of the two model
// families ("best model" column of Table III).
func SSE(m Model, xs, ys []float64) float64 {
	sse := 0.0
	for i, x := range xs {
		d := ys[i] - m.Eval(x)
		sse += d * d
	}
	return sse
}

// FitBest fits both model families and returns the one with the smaller
// sum of squared residuals, preferring a model whose optimum is "useful"
// (interior) over a degenerate one regardless of residuals. This encodes
// the paper's observation that "in all evaluation configurations at least
// one of the models manages to capture the shape of the graph".
func FitBest(xs, ys []float64, limits core.Limits) (Model, error) {
	q, qErr := FitQuadratic(xs, ys)
	p, pErr := FitParabolic(xs, ys)
	switch {
	case qErr != nil && pErr != nil:
		return nil, fmt.Errorf("sysid: both fits failed: %v; %v", qErr, pErr)
	case qErr != nil:
		return p, nil
	case pErr != nil:
		return q, nil
	}
	_, qOK := q.Optimum(limits)
	_, pOK := p.Optimum(limits)
	if qOK != pOK {
		if qOK {
			return q, nil
		}
		return p, nil
	}
	if SSE(q, xs, ys) <= SSE(p, xs, ys) {
		return q, nil
	}
	return p, nil
}

func checkSamples(xs, ys []float64, minN int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("sysid: %d block sizes but %d measurements", len(xs), len(ys))
	}
	if len(xs) < minN {
		return ErrInsufficientData
	}
	return nil
}

func boundsOf(l core.Limits) (lo, hi float64) {
	lo = float64(l.Min)
	if l.Min < 1 {
		lo = 1
	}
	hi = float64(l.Max)
	if l.Max < 1 {
		hi = math.MaxFloat64
	}
	return lo, hi
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
