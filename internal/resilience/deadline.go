package resilience

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Adaptive per-block deadlines, replacing a single static request
// timeout: a stalled block should be detected in RTT-scale time, not
// after a multi-minute catch-all. The tracker observes the round-trip
// time of every successful block together with its tuple count and
// derives a deadline for the *next* block from the per-tuple cost
// distribution — per-tuple rather than per-block because the controller
// grows block sizes by orders of magnitude during a query, so yesterday's
// raw p95 says little about a block 20× larger.

// DeadlineConfig parameterizes a DeadlineTracker. The zero value yields
// the defaults noted per field.
type DeadlineConfig struct {
	// Multiplier scales the estimated block time into a deadline
	// (default 4): deadline = Multiplier × q-quantile(per-tuple RTT) × size.
	Multiplier float64
	// Quantile of the per-tuple RTT distribution to base the estimate on
	// (default 0.95).
	Quantile float64
	// Min clamps the deadline from below so tiny LAN RTTs cannot produce
	// hair-trigger timeouts (default 1s).
	Min time.Duration
	// Max clamps the deadline from above and is the fallback before
	// MinSamples observations exist (default 2m).
	Max time.Duration
	// MinSamples is how many observations are needed before the adaptive
	// estimate replaces Max (default 5).
	MinSamples int
	// Window is the number of recent observations retained (default 64).
	Window int
}

func (c DeadlineConfig) normalized() DeadlineConfig {
	if c.Multiplier <= 0 {
		c.Multiplier = 4
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.95
	}
	if c.Min <= 0 {
		c.Min = time.Second
	}
	if c.Max <= 0 {
		c.Max = 2 * time.Minute
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.MinSamples < 1 {
		c.MinSamples = 5
	}
	if c.Window < c.MinSamples {
		c.Window = 64
	}
	return c
}

// DeadlineTracker maintains a sliding window of per-tuple RTT samples
// and derives per-block deadlines from it. Safe for concurrent use.
//
// The window is kept twice: in arrival order, to know which sample the
// next one evicts, and sorted, so that a deadline — asked for on every
// pull and every push frame — is a quantile lookup, not a copy and a
// sort.
type DeadlineTracker struct {
	cfg DeadlineConfig

	mu      sync.Mutex
	samples []float64 // per-tuple RTT in milliseconds, ring buffer
	sorted  []float64 // the same samples, ascending
	next    int
}

// NewDeadlineTracker builds a tracker with the given configuration.
func NewDeadlineTracker(cfg DeadlineConfig) *DeadlineTracker {
	cfg = cfg.normalized()
	return &DeadlineTracker{cfg: cfg, samples: make([]float64, 0, cfg.Window), sorted: make([]float64, 0, cfg.Window)}
}

// Observe records the RTT of one successful block of the given tuple
// count. Non-positive tuple counts count as one tuple (the done-marker
// block still carries timing information).
func (d *DeadlineTracker) Observe(rtt time.Duration, tuples int) {
	if rtt <= 0 {
		return
	}
	if tuples < 1 {
		tuples = 1
	}
	perTuple := float64(rtt) / float64(time.Millisecond) / float64(tuples)
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.sorted
	at := sort.SearchFloat64s(s, perTuple) // where the new sample goes
	if len(d.samples) < d.cfg.Window {
		d.samples = append(d.samples, perTuple)
		d.sorted = slices.Insert(s, at, perTuple)
		return
	}
	// The window is full: the new sample takes the evicted one's place in
	// arrival order, and in sorted order the samples between the two
	// shift by one to close the gap it leaves.
	gap := sort.SearchFloat64s(s, d.samples[d.next])
	d.samples[d.next] = perTuple
	d.next = (d.next + 1) % d.cfg.Window
	if at > gap {
		at--
		copy(s[gap:at], s[gap+1:at+1])
	} else {
		copy(s[at+1:gap+1], s[at:gap])
	}
	s[at] = perTuple
}

// Max returns the configured static ceiling — the fallback deadline and
// the upper clamp applied to adaptive estimates.
func (d *DeadlineTracker) Max() time.Duration { return d.cfg.Max }

// Samples returns how many observations are currently retained.
func (d *DeadlineTracker) Samples() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.samples)
}

// DeadlineFor returns the deadline for pulling a block of the given
// size: Multiplier × quantile(per-tuple RTT) × size, clamped to
// [Min, Max]. Before MinSamples observations exist it returns Max — the
// conservative static fallback.
func (d *DeadlineTracker) DeadlineFor(size int) time.Duration {
	if size < 1 {
		size = 1
	}
	d.mu.Lock()
	if len(d.sorted) < d.cfg.MinSamples {
		d.mu.Unlock()
		return d.cfg.Max
	}
	q := quantileSorted(d.sorted, d.cfg.Quantile)
	d.mu.Unlock()
	ms := d.cfg.Multiplier * q * float64(size)
	dl := time.Duration(ms * float64(time.Millisecond))
	if dl < d.cfg.Min {
		return d.cfg.Min
	}
	if dl > d.cfg.Max {
		return d.cfg.Max
	}
	return dl
}

// quantileSorted returns the q-quantile of a sorted sample by the
// nearest-rank method with linear interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}
