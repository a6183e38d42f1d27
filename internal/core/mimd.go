package core

import (
	"fmt"
	"math"
)

// MIMD is the multiplicative increase – multiplicative decrease linear
// controller of Eq. 7: the block size always lies on the geometric grid
// x0·g^j, with the exponent j counting net improvement directions,
//
//	x_k = x0 · g^{j(k-1)},   j(k) = Σ_{i<=k} −sign(Δŷ_i·Δx_i).
//
// Because the reachable sizes form a grid, measurements can be
// scale-averaged per grid point: ŷ_p is the running mean of the last few
// observations at x0·g^p, which replaces the raw Δy in the sign term.
// The paper found MIMD behaves like the adaptive-gain scheme in the
// problematic cases ("which is unacceptable"); it is implemented as a
// baseline.
type MIMD struct {
	x0     float64
	g      float64
	limits Limits
	avg    *averager
	hist   map[int]*gridStats // per-exponent scale averaging
	histN  int

	j        int
	jMin     int
	jMax     int
	havePrev bool
	prevX    float64
	prevY    float64
	steps    int
}

// gridStats keeps a bounded running window of measurements per grid point.
type gridStats struct {
	vals []float64
	max  int
}

func (g *gridStats) add(v float64) {
	g.vals = append(g.vals, v)
	if len(g.vals) > g.max {
		g.vals = g.vals[len(g.vals)-g.max:]
	}
}

func (g *gridStats) mean() float64 { return mean(g.vals) }

// MIMDConfig parameterizes the MIMD controller.
type MIMDConfig struct {
	// InitialSize is x0, the grid origin.
	InitialSize int
	// Gain is the multiplicative factor g > 1 (e.g. 1.5).
	Gain float64
	// Limits bound the reachable grid points: j is clamped so that
	// x0·g^j stays within them.
	Limits Limits
	// AvgHorizon is the per-block averaging window n before one
	// adaptivity step, as in the additive controllers.
	AvgHorizon int
	// ScaleWindow is how many past averaged measurements per grid point
	// contribute to ŷ (paper: "the average over the measured output of the
	// same control input"). Values below 1 mean 1.
	ScaleWindow int
}

// NewMIMD builds the multiplicative controller.
func NewMIMD(cfg MIMDConfig) (*MIMD, error) {
	if cfg.InitialSize < 1 {
		return nil, fmt.Errorf("core: MIMD initial size %d must be positive", cfg.InitialSize)
	}
	if cfg.Gain <= 1 {
		return nil, fmt.Errorf("core: MIMD gain %g must exceed 1", cfg.Gain)
	}
	if !cfg.Limits.Valid() {
		return nil, fmt.Errorf("core: invalid limits [%d, %d]", cfg.Limits.Min, cfg.Limits.Max)
	}
	if cfg.ScaleWindow < 1 {
		cfg.ScaleWindow = 1
	}
	m := &MIMD{
		x0:     float64(cfg.Limits.Clamp(cfg.InitialSize)),
		g:      cfg.Gain,
		limits: cfg.Limits,
		avg:    newAverager(cfg.AvgHorizon),
		hist:   make(map[int]*gridStats),
		histN:  cfg.ScaleWindow,
	}
	m.jMin, m.jMax = m.gridBounds()
	return m, nil
}

// gridBounds computes the exponent range reachable inside the limits.
func (m *MIMD) gridBounds() (lo, hi int) {
	lo, hi = math.MinInt32, math.MaxInt32
	if m.limits.Min > 0 {
		lo = int(math.Ceil(math.Log(float64(m.limits.Min)/m.x0) / math.Log(m.g)))
	}
	if m.limits.Max > 0 {
		hi = int(math.Floor(math.Log(float64(m.limits.Max)/m.x0) / math.Log(m.g)))
	}
	if hi < lo {
		// The grid origin itself may sit outside the limits; collapse to
		// the single nearest reachable exponent.
		lo, hi = 0, 0
	}
	return lo, hi
}

// Size implements Controller.
func (m *MIMD) Size() int {
	return m.limits.Clamp(round(m.x0 * math.Pow(m.g, float64(m.j))))
}

// Observe implements Controller.
func (m *MIMD) Observe(responseTime float64) {
	x := float64(m.Size())
	if _, my, full := m.avg.add(x, responseTime); full {
		m.step(x, my)
	}
}

func (m *MIMD) step(x, my float64) {
	m.steps++
	// Scale averaging: fold this window's mean into the grid point's
	// running estimate ŷ_p and use that in the sign term.
	gs := m.hist[m.j]
	if gs == nil {
		gs = &gridStats{max: m.histN}
		m.hist[m.j] = gs
	}
	gs.add(my)
	yhat := gs.mean()

	if !m.havePrev {
		m.havePrev = true
		m.prevX, m.prevY = x, yhat
		m.setJ(m.j + 1) // first step: probe upward, like the additive schemes
		return
	}
	dy := yhat - m.prevY
	dx := x - m.prevX
	m.prevX, m.prevY = x, yhat
	m.setJ(m.j - int(Sign(dy*dx)))
}

func (m *MIMD) setJ(j int) {
	if j < m.jMin {
		j = m.jMin
	}
	if j > m.jMax {
		j = m.jMax
	}
	m.j = j
}

// Name implements Controller.
func (m *MIMD) Name() string { return "mimd" }

// Steps returns the number of adaptivity steps taken so far.
func (m *MIMD) Steps() int { return m.steps }

// Exponent returns the current grid exponent j, for tests and reports.
func (m *MIMD) Exponent() int { return m.j }

// Reset implements Resetter. MIMD has no dither RNG, so clearing the
// averager, the per-grid-point history and the exponent restores the
// freshly-constructed state exactly.
func (m *MIMD) Reset() {
	m.avg.reset()
	m.hist = make(map[int]*gridStats)
	m.j = 0
	m.havePrev = false
	m.prevX, m.prevY = 0, 0
	m.steps = 0
}
