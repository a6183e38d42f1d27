package resilience

import (
	"testing"
	"time"
)

func testPool(t *testing.T, urls ...string) *Pool {
	t.Helper()
	p, err := NewPool(urls, BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}, nil)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, BreakerConfig{}, nil); err == nil {
		t.Error("empty URL list should be rejected")
	}
	if _, err := NewPool([]string{"http://a", ""}, BreakerConfig{}, nil); err == nil {
		t.Error("empty URL should be rejected")
	}
	if _, err := NewPool([]string{"http://a", "http://a"}, BreakerConfig{}, nil); err == nil {
		t.Error("duplicate URL should be rejected")
	}
}

func TestPoolPickPrefersPrimaryAndSkipsOpen(t *testing.T) {
	p := testPool(t, "http://a", "http://b", "http://c")
	if got := p.Pick().URL(); got != "http://a" {
		t.Fatalf("Pick() = %s, want primary http://a", got)
	}
	// Open a's breaker (threshold 1): picks should skip to b.
	p.Endpoints()[0].Failure()
	if got := p.Pick().URL(); got != "http://b" {
		t.Fatalf("Pick() with a open = %s, want http://b", got)
	}
}

func TestPoolPickAllOpenFallsBackToPrimary(t *testing.T) {
	p := testPool(t, "http://a", "http://b")
	for _, ep := range p.Endpoints() {
		ep.Failure()
	}
	// Every breaker is open: Pick must still return something (the
	// primary) so cooldown probes can eventually recover the pool.
	if got := p.Pick().URL(); got != "http://a" {
		t.Fatalf("Pick() with all open = %s, want http://a", got)
	}
}

func TestPoolOther(t *testing.T) {
	p := testPool(t, "http://a", "http://b")
	a, b := p.Endpoints()[0], p.Endpoints()[1]
	if ep, ok := p.Other(a); !ok || ep != b {
		t.Fatalf("Other(a) = %v,%v, want b,true", ep, ok)
	}
	b.Failure()
	if _, ok := p.Other(a); ok {
		t.Fatal("Other(a) should find nothing when b's breaker is open")
	}
	// Single-endpoint pool: never fails over to itself.
	single := testPool(t, "http://only")
	if _, ok := single.Other(single.Endpoints()[0]); ok {
		t.Fatal("Other on single-endpoint pool should report none")
	}
}

func TestPoolPromote(t *testing.T) {
	p := testPool(t, "http://a", "http://b")
	b := p.Endpoints()[1]
	p.Promote(b)
	if got := p.Primary(); got != b {
		t.Fatalf("Primary() after Promote = %v, want b", got.URL())
	}
	if got := p.Pick(); got != b {
		t.Fatalf("Pick() after Promote = %v, want b", got.URL())
	}
}

func TestPoolPerEndpointBreakerConfig(t *testing.T) {
	var urls []string
	p, err := NewPool([]string{"http://a", "http://b"}, BreakerConfig{FailureThreshold: 1},
		func(u string) BreakerConfig {
			return BreakerConfig{
				FailureThreshold: 1,
				OnTransition:     func(_, _ BreakerState) { urls = append(urls, u) },
			}
		})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	p.Endpoints()[1].Failure()
	if len(urls) != 1 || urls[0] != "http://b" {
		t.Fatalf("transition callback saw %v, want [http://b]", urls)
	}
}

// TestPoolRollingRestart walks the pool through a rolling restart of all
// three replicas — the gateway-tier maintenance scenario. Each restart
// must produce the full open → half-open → closed breaker cycle under an
// injectable clock (no real sleeps), traffic must promote to the next
// replica in a deterministic order, and after the roll completes every
// endpoint must be closed and serving again.
func TestPoolRollingRestart(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	const cooldown = 30 * time.Second

	transitions := map[string][]string{}
	p, err := NewPool([]string{"http://a", "http://b", "http://c"},
		BreakerConfig{},
		func(u string) BreakerConfig {
			return BreakerConfig{
				FailureThreshold: 2,
				Cooldown:         cooldown,
				Clock:            clock,
				OnTransition: func(from, to BreakerState) {
					transitions[u] = append(transitions[u], from.String()+">"+to.String())
				},
			}
		})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	byURL := map[string]*Endpoint{}
	for _, ep := range p.Endpoints() {
		byURL[ep.URL()] = ep
	}

	// The deterministic promotion order: when the current primary goes
	// down, traffic moves to the next endpoint in registration order.
	rollOrder := []string{"http://a", "http://b", "http://c"}
	wantPromotion := []string{"http://b", "http://c", "http://a"}

	for i, down := range rollOrder {
		restarting := byURL[down]
		if p.Pick() != restarting {
			t.Fatalf("roll %d: primary is %s, want %s about to restart", i, p.Pick().URL(), down)
		}

		// The replica goes down: two consecutive failures open its breaker.
		restarting.Failure()
		if restarting.State() != Closed {
			t.Fatalf("roll %d: breaker opened below the failure threshold", i)
		}
		restarting.Failure()
		if restarting.State() != Open {
			t.Fatalf("roll %d: breaker did not open after threshold failures", i)
		}
		if restarting.Allow() {
			t.Fatalf("roll %d: open breaker admitted a request before cooldown", i)
		}

		// Traffic fails over; the promotion target is deterministic.
		next := p.Pick()
		if next.URL() != wantPromotion[i] {
			t.Fatalf("roll %d: failover picked %s, want %s", i, next.URL(), wantPromotion[i])
		}
		if other, ok := p.Other(restarting); !ok || other != next {
			t.Fatalf("roll %d: Other() disagrees with Pick(): %v", i, other)
		}
		next.Success()
		p.Promote(next)
		if p.Primary() != next {
			t.Fatalf("roll %d: promotion did not take", i)
		}

		// Still cooling down: probes stay refused with the clock frozen.
		now = now.Add(cooldown / 2)
		if restarting.Allow() {
			t.Fatalf("roll %d: breaker admitted a probe mid-cooldown", i)
		}
		if restarting.State() != Open {
			t.Fatalf("roll %d: state %v mid-cooldown, want open", i, restarting.State())
		}

		// Cooldown elapses: exactly the half-open probe flows, and its
		// success closes the breaker — the replica is back.
		now = now.Add(cooldown)
		if !restarting.Allow() {
			t.Fatalf("roll %d: breaker refused the half-open probe after cooldown", i)
		}
		if restarting.State() != HalfOpen {
			t.Fatalf("roll %d: state %v after probe admitted, want half-open", i, restarting.State())
		}
		restarting.Success()
		if restarting.State() != Closed {
			t.Fatalf("roll %d: probe success did not close the breaker", i)
		}
	}

	// After the full roll every endpoint serves again, and each breaker
	// went through exactly one open → half-open → closed cycle.
	for url, ep := range byURL {
		if !ep.Allow() || ep.State() != Closed {
			t.Fatalf("%s not healthy after the roll: %v", url, ep.State())
		}
		want := []string{"closed>open", "open>half-open", "half-open>closed"}
		got := transitions[url]
		if len(got) != len(want) {
			t.Fatalf("%s transitions = %v, want %v", url, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s transitions = %v, want %v", url, got, want)
			}
		}
	}

	// The roll ends with c promoted; a recovered replica does not steal
	// the primary back until something promotes it.
	if p.Primary().URL() != "http://a" {
		// The last promotion in the roll was to a (c's successor).
		t.Fatalf("primary after roll = %s, want http://a", p.Primary().URL())
	}
}
