// Package profile represents response-time profiles y = f(x): the
// relationship between block size and transfer cost that the paper's
// controllers optimize over. A profile wraps a netsim.CostModel (or a
// schedule of them) together with a private noise source, and is consumed
// block by block by the simulation engine.
//
// The package ships the calibrated configurations used throughout the
// paper's evaluation (conf1.1–1.3 on the WAN, conf2.1–2.2 on the LAN, and
// the motivation families of Figs. 1 and 2); see paper.go.
package profile

import (
	"fmt"
	"math"
	"math/rand"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
)

// Profile is a source of per-block response times. Implementations are
// stateful: BlockMS advances an internal clock so time-varying profiles
// (switching, drifting) can evolve as the query progresses. Not safe for
// concurrent use.
type Profile interface {
	// BlockMS draws the response time, in milliseconds, of transferring
	// one block of x tuples now, and advances the profile by one block.
	BlockMS(x int) float64
	// Model returns the currently active noise-free cost model, used for
	// ground-truth computations.
	Model() netsim.CostModel
	// Tuples returns the result-set cardinality of the modeled query.
	Tuples() int
	// Name identifies the profile in reports.
	Name() string
}

// Fixed is a stationary profile: one cost model for the whole query.
type Fixed struct {
	name   string
	model  netsim.CostModel
	tuples int
	rng    *rand.Rand
}

// New builds a stationary profile with a private RNG seeded by seed.
func New(name string, m netsim.CostModel, tuples int, seed int64) *Fixed {
	return &Fixed{name: name, model: m, tuples: tuples, rng: rand.New(rand.NewSource(seed))}
}

// BlockMS implements Profile.
func (f *Fixed) BlockMS(x int) float64 { return f.model.BlockMS(x, f.rng) }

// Model implements Profile.
func (f *Fixed) Model() netsim.CostModel { return f.model }

// Tuples implements Profile.
func (f *Fixed) Tuples() int { return f.tuples }

// Name implements Profile.
func (f *Fixed) Name() string { return f.name }

// Segment is one phase of a Switching profile.
type Segment struct {
	// Model is the cost model active during this segment.
	Model netsim.CostModel
	// Blocks is how many blocks the segment lasts. The final segment may
	// use 0 to mean "until the query ends".
	Blocks int
}

// Switching is a time-varying profile that replays a schedule of cost
// models — the Fig. 8 scenario (conf1.1 → conf1.2 → conf1.3 → conf1.1).
type Switching struct {
	name     string
	segments []Segment
	tuples   int
	rng      *rand.Rand
	block    int
}

// NewSwitching builds a switching profile. At least one segment is
// required; segment durations are in blocks (one adaptivity step consumes
// AvgHorizon blocks).
func NewSwitching(name string, segments []Segment, tuples int, seed int64) (*Switching, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("profile: switching profile %q needs at least one segment", name)
	}
	for i, s := range segments[:len(segments)-1] {
		if s.Blocks <= 0 {
			return nil, fmt.Errorf("profile: segment %d of %q must have positive duration", i, name)
		}
	}
	return &Switching{
		name:     name,
		segments: segments,
		tuples:   tuples,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// active returns the cost model for the current block.
func (s *Switching) active() netsim.CostModel {
	b := s.block
	for _, seg := range s.segments {
		if seg.Blocks <= 0 || b < seg.Blocks {
			return seg.Model
		}
		b -= seg.Blocks
	}
	return s.segments[len(s.segments)-1].Model
}

// BlockMS implements Profile.
func (s *Switching) BlockMS(x int) float64 {
	m := s.active()
	s.block++
	return m.BlockMS(x, s.rng)
}

// Model implements Profile.
func (s *Switching) Model() netsim.CostModel { return s.active() }

// Tuples implements Profile.
func (s *Switching) Tuples() int { return s.tuples }

// Name implements Profile.
func (s *Switching) Name() string { return s.name }

// Block returns how many blocks have been consumed, for tests.
func (s *Switching) Block() int { return s.block }

// Drift describes a slow sinusoidal modulation of a cost model over time,
// emulating "frequent movements of the optimal point" (Section III-C):
// the knee (where the memory penalty starts) and the per-request latency
// wander, so the optimum block size is genuinely volatile.
type Drift struct {
	// KneeAmp is the relative amplitude of the knee oscillation (ignored
	// when the base model has no knee).
	KneeAmp float64
	// LatencyAmp is the relative amplitude of the latency oscillation.
	LatencyAmp float64
	// PeriodMS is the oscillation period in simulated wall-clock
	// milliseconds: drift advances with elapsed transfer time, so runs
	// with large (slow) blocks and small (fast) blocks experience the
	// same environmental volatility per second, as a real server would.
	PeriodMS float64
	// Phase offsets the oscillation, in radians. When zero, a random
	// phase is drawn from the profile's seed so replicated runs sample
	// the whole cycle.
	Phase float64
}

// Drifting modulates a base cost model according to a Drift schedule.
type Drifting struct {
	name      string
	base      netsim.CostModel
	drift     Drift
	tuples    int
	rng       *rand.Rand
	phase     float64
	elapsedMS float64
}

// NewDrifting builds a drifting profile around base.
func NewDrifting(name string, base netsim.CostModel, drift Drift, tuples int, seed int64) (*Drifting, error) {
	if drift.KneeAmp < 0 || drift.KneeAmp >= 1 || drift.LatencyAmp < 0 || drift.LatencyAmp >= 1 {
		return nil, fmt.Errorf("profile: drift amplitudes (%g, %g) must be in [0, 1)", drift.KneeAmp, drift.LatencyAmp)
	}
	if drift.KneeAmp == 0 && drift.LatencyAmp == 0 {
		return nil, fmt.Errorf("profile: drifting profile %q needs a non-zero amplitude", name)
	}
	if drift.PeriodMS <= 0 {
		return nil, fmt.Errorf("profile: drift period %g must be positive", drift.PeriodMS)
	}
	d := &Drifting{
		name: name, base: base, drift: drift,
		tuples: tuples, rng: rand.New(rand.NewSource(seed)),
	}
	d.phase = drift.Phase
	if d.phase == 0 {
		d.phase = 2 * math.Pi * d.rng.Float64()
	}
	return d, nil
}

// Model implements Profile; it returns the instantaneous cost model.
func (d *Drifting) Model() netsim.CostModel {
	m := d.base
	w := math.Sin(2*math.Pi*d.elapsedMS/d.drift.PeriodMS + d.phase)
	if m.KneeTuples > 0 && d.drift.KneeAmp > 0 {
		m.KneeTuples *= 1 + d.drift.KneeAmp*w
	}
	if d.drift.LatencyAmp > 0 {
		m.LatencyMS *= 1 + d.drift.LatencyAmp*w
	}
	return m
}

// Base returns the unmodulated cost model, the natural normalization
// reference for drifting profiles.
func (d *Drifting) Base() netsim.CostModel { return d.base }

// BlockMS implements Profile; the drawn cost advances simulated time.
func (d *Drifting) BlockMS(x int) float64 {
	ms := d.Model().BlockMS(x, d.rng)
	d.elapsedMS += ms
	return ms
}

// Tuples implements Profile.
func (d *Drifting) Tuples() int { return d.tuples }

// Name implements Profile.
func (d *Drifting) Name() string { return d.name }

// OptimalFixedSize returns the post-mortem optimum fixed block size and
// its expected total time for the profile's current model — the
// normalization baseline of Tables I–III.
func OptimalFixedSize(p Profile, limits core.Limits, step int) (size int, totalMS float64) {
	return p.Model().OptimalFixedSize(p.Tuples(), limits, step)
}
