package client

import (
	"context"
	"net/http"
	"time"

	"wsopt/internal/resilience"
)

// ResilienceConfig tunes the client's multi-endpoint behaviour: the
// per-endpoint circuit breakers and the adaptive per-block deadlines,
// the two signals a session fails over on. The zero value yields
// sensible defaults; a single-endpoint client never fails over (breaker
// state is tracked but never refuses, an expired deadline retries in
// place).
type ResilienceConfig struct {
	// Breaker parameterizes every endpoint's circuit breaker.
	Breaker resilience.BreakerConfig
	// Deadline parameterizes the adaptive per-block deadline tracker.
	Deadline resilience.DeadlineConfig
}

// SetResilience reconfigures breakers and deadlines. Call before opening
// sessions: it rebuilds the endpoint pool, so breaker state accumulated
// on the old pool is discarded.
func (c *Client) SetResilience(rc ResilienceConfig) error {
	c.rcfg = rc
	return c.rebuildPool()
}

// rebuildPool constructs the endpoint pool from c.urls and the current
// resilience config, binding each breaker's transition callback to the
// client's (rebindable) metrics.
func (c *Client) rebuildPool() error {
	pool, err := resilience.NewPool(c.urls, c.rcfg.Breaker, func(u string) resilience.BreakerConfig {
		bc := c.rcfg.Breaker
		bc.OnTransition = func(_, to resilience.BreakerState) {
			// Read c.metrics at call time: SetMetrics rebinds it.
			c.metrics.breakerTransition(to)
		}
		return bc
	})
	if err != nil {
		return err
	}
	c.pool = pool
	c.deadline = resilience.NewDeadlineTracker(c.rcfg.Deadline)
	return nil
}

// endpointState reports the breaker state of the endpoint with the given
// URL, looked up through the current pool so metric gauges survive a
// SetResilience rebuild.
func (c *Client) endpointState(u string) resilience.BreakerState {
	for _, ep := range c.pool.Endpoints() {
		if ep.URL() == u {
			return ep.State()
		}
	}
	return resilience.Closed
}

// attemptDeadline is the per-block pull deadline: the tracker's adaptive
// estimate for this size, doubled per retry attempt (a block that
// deadlined once gets more room, in case the estimate is simply stale),
// capped at the tracker's static maximum and at the caller's own Timeout.
func (c *Client) attemptDeadline(size, attempt int) time.Duration {
	d := c.deadline.DeadlineFor(size)
	max := c.deadline.Max()
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return c.bound(d)
}

// bound caps a request's own deadline at the Timeout of the http.Client
// the caller handed in, so that a request sent through shc still honours
// it — once, as part of the one deadline its context carries.
func (c *Client) bound(d time.Duration) time.Duration {
	if t := c.hc.Timeout; t > 0 && t < d {
		return t
	}
	return d
}

// bestEffort sends one bodiless request nobody waits on the outcome of,
// bounded by its own timeout under parent, and reports whether the
// endpoint answered: a credit grant, or the DELETE of the half a session
// move left behind — whose endpoint may be dead or slow, and whose
// session TTL-expires server-side if the DELETE never lands.
func (c *Client) bestEffort(parent context.Context, timeout time.Duration, method, url string) bool {
	ctx, cancel := context.WithTimeout(parent, c.bound(timeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.shc.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return true
}
