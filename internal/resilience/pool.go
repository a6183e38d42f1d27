package resilience

import (
	"fmt"
	"sync"
)

// Endpoint is one replica base URL with its circuit breaker.
type Endpoint struct {
	url     string
	breaker *Breaker
}

// URL returns the endpoint's base URL.
func (e *Endpoint) URL() string { return e.url }

// Allow asks the endpoint's breaker whether a request may be issued.
func (e *Endpoint) Allow() bool { return e.breaker.Allow() }

// Success records a successful request against the endpoint's breaker.
func (e *Endpoint) Success() { e.breaker.Success() }

// Failure records a failed request against the endpoint's breaker.
func (e *Endpoint) Failure() { e.breaker.Failure() }

// State returns the breaker's current state.
func (e *Endpoint) State() BreakerState { return e.breaker.State() }

// Pool is a set of replica endpoints with a preferred primary. Health is
// tracked passively through each endpoint's breaker; the pool only
// decides which replica a request should go to. Safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	endpoints []*Endpoint
	primary   int
}

// NewPool builds a pool over the given base URLs (order defines the
// initial preference; the first is the primary). Each endpoint gets its
// own breaker built from cfg. mkBreaker lets the caller decorate the
// per-endpoint config (e.g. bind a transition callback carrying the
// endpoint URL); nil uses cfg as-is.
func NewPool(urls []string, cfg BreakerConfig, mkBreaker func(url string) BreakerConfig) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("resilience: pool needs at least one endpoint")
	}
	seen := make(map[string]bool, len(urls))
	p := &Pool{}
	for _, u := range urls {
		if u == "" {
			return nil, fmt.Errorf("resilience: empty endpoint URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("resilience: duplicate endpoint URL %q", u)
		}
		seen[u] = true
		bc := cfg
		if mkBreaker != nil {
			bc = mkBreaker(u)
		}
		p.endpoints = append(p.endpoints, &Endpoint{url: u, breaker: NewBreaker(bc)})
	}
	return p, nil
}

// Len returns the number of endpoints.
func (p *Pool) Len() int { return len(p.endpoints) }

// Endpoints returns the endpoints in registration order (the slice is
// shared; do not mutate).
func (p *Pool) Endpoints() []*Endpoint { return p.endpoints }

// Pick returns an endpoint to use for a new request, preferring the
// current primary and skipping endpoints whose breakers refuse traffic.
// When every breaker is open it returns the primary anyway — the
// breaker's cool-down logic (observed through Allow) is what eventually
// lets probe traffic through, and refusing everything forever would
// deadlock recovery.
func (p *Pool) Pick() *Endpoint {
	if ep, ok := p.Other(nil); ok {
		return ep
	}
	return p.Primary()
}

// Other returns a healthy endpoint different from exclude (the target of
// a failover), or false when none exists. The scan starts at the primary.
func (p *Pool) Other(exclude *Endpoint) (*Endpoint, bool) {
	p.mu.Lock()
	start := p.primary
	p.mu.Unlock()
	n := len(p.endpoints)
	for i := 0; i < n; i++ {
		ep := p.endpoints[(start+i)%n]
		if ep != exclude && ep.Allow() {
			return ep, true
		}
	}
	return nil, false
}

// Promote makes ep the preferred primary for future picks (called after
// a failover, so new sessions land on the replica that just proved
// healthy).
func (p *Pool) Promote(ep *Endpoint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.endpoints {
		if e == ep {
			p.primary = i
			return
		}
	}
}

// Primary returns the current preferred endpoint.
func (p *Pool) Primary() *Endpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.endpoints[p.primary]
}
