// Package resilience is the client-side resilience layer: per-endpoint
// circuit breakers, a replica endpoint pool with passive health tracking,
// and adaptive per-block deadlines derived from observed round-trip
// times. Together with the seq/replay transfer protocol (which makes
// block pulls idempotent) they let a query survive degraded or dead
// replicas: stalled blocks are detected in RTT-scale time, and a session
// whose endpoint goes dark, or lets a block outlive its deadline, fails
// over and resumes from its committed cursor.
//
// The package is deliberately free of HTTP concerns: it tracks health,
// times, and decisions; the client wires it to actual requests.
package resilience

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is one of the circuit breaker's three states.
type BreakerState int

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: requests are refused until the cool-down elapses.
	Open
	// HalfOpen: the cool-down elapsed; probe requests are admitted. The
	// first success closes the breaker, the first failure re-opens it.
	HalfOpen
)

// String implements fmt.Stringer (used as a metrics label).
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig parameterizes a Breaker. The zero value yields the
// defaults noted per field.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Clock supplies the current time; nil uses time.Now. Tests inject a
	// fake clock so transitions need no real sleeps.
	Clock func() time.Time
	// OnTransition, when non-nil, is called (outside the breaker's lock)
	// after every state change, e.g. to increment a metrics counter.
	OnTransition func(from, to BreakerState)
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.FailureThreshold < 1 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a per-endpoint circuit breaker with passive health
// tracking: callers report Success/Failure after each request and ask
// Allow before issuing one. Safe for concurrent use.
//
// State machine: Closed --(FailureThreshold consecutive failures)-->
// Open --(Cooldown elapses, observed by Allow)--> HalfOpen
// --(success)--> Closed, or --(failure)--> Open again.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// NewBreaker builds a breaker in the Closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.normalized()}
}

// Allow reports whether a request may be issued now. In the Open state
// it returns false until the cool-down has elapsed, at which point the
// breaker transitions to HalfOpen and admits probes.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case Closed, HalfOpen:
		b.mu.Unlock()
		return true
	default: // Open
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = HalfOpen
		b.mu.Unlock()
		b.notify(Open, HalfOpen)
		return true
	}
}

// Success records a successful request: it closes a half-open breaker
// and clears the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.failures = 0
	b.state = Closed
	b.mu.Unlock()
	if from != Closed {
		b.notify(from, Closed)
	}
}

// Failure records a failed request: it re-opens a half-open breaker
// immediately, and opens a closed one once the consecutive-failure
// threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.openedAt = b.cfg.Clock()
		b.failures = 0
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.state = Open
			b.openedAt = b.cfg.Clock()
			b.failures = 0
		}
	case Open:
		// A straggler failing after the breaker already opened (e.g. another
		// session's pull on the same endpoint) changes nothing.
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.notify(from, to)
	}
}

// State returns the current state without side effects (an Open breaker
// whose cool-down has elapsed still reports Open until Allow observes
// it).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) notify(from, to BreakerState) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}
