package resilience

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock so breaker transition tests
// need no real sleeps.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// TestBreakerTransitions drives the full open → half-open → closed state
// machine (and its failure paths) table-driven against a fake clock.
func TestBreakerTransitions(t *testing.T) {
	type step struct {
		do        string        // "fail" | "ok" | "allow" | "advance"
		d         time.Duration // for "advance"
		wantAllow bool          // for "allow"
		wantState BreakerState  // state after the step
	}
	const cooldown = 10 * time.Second
	cases := []struct {
		name      string
		threshold int
		steps     []step
	}{
		{
			name:      "opens only after threshold consecutive failures",
			threshold: 3,
			steps: []step{
				{do: "fail", wantState: Closed},
				{do: "fail", wantState: Closed},
				{do: "allow", wantAllow: true, wantState: Closed},
				{do: "fail", wantState: Open},
				{do: "allow", wantAllow: false, wantState: Open},
			},
		},
		{
			name:      "success resets the consecutive-failure count",
			threshold: 2,
			steps: []step{
				{do: "fail", wantState: Closed},
				{do: "ok", wantState: Closed},
				{do: "fail", wantState: Closed},
				{do: "fail", wantState: Open},
			},
		},
		{
			name:      "cooldown admits a probe and a success closes",
			threshold: 1,
			steps: []step{
				{do: "fail", wantState: Open},
				{do: "allow", wantAllow: false, wantState: Open},
				{do: "advance", d: cooldown - time.Millisecond},
				{do: "allow", wantAllow: false, wantState: Open},
				{do: "advance", d: time.Millisecond},
				{do: "allow", wantAllow: true, wantState: HalfOpen},
				{do: "ok", wantState: Closed},
				{do: "allow", wantAllow: true, wantState: Closed},
			},
		},
		{
			name:      "failed probe re-opens and restarts the cooldown",
			threshold: 1,
			steps: []step{
				{do: "fail", wantState: Open},
				{do: "advance", d: cooldown},
				{do: "allow", wantAllow: true, wantState: HalfOpen},
				{do: "fail", wantState: Open},
				{do: "allow", wantAllow: false, wantState: Open},
				{do: "advance", d: cooldown},
				{do: "allow", wantAllow: true, wantState: HalfOpen},
				{do: "ok", wantState: Closed},
			},
		},
		{
			name:      "half-open re-open then close needs a fresh threshold to open again",
			threshold: 2,
			steps: []step{
				{do: "fail", wantState: Closed},
				{do: "fail", wantState: Open},
				{do: "advance", d: cooldown},
				{do: "allow", wantAllow: true, wantState: HalfOpen},
				{do: "ok", wantState: Closed},
				{do: "fail", wantState: Closed}, // count restarted
				{do: "fail", wantState: Open},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			b := NewBreaker(BreakerConfig{
				FailureThreshold: tc.threshold,
				Cooldown:         cooldown,
				Clock:            clk.Now,
			})
			for i, s := range tc.steps {
				switch s.do {
				case "fail":
					b.Failure()
				case "ok":
					b.Success()
				case "allow":
					if got := b.Allow(); got != s.wantAllow {
						t.Fatalf("step %d: Allow() = %v, want %v", i, got, s.wantAllow)
					}
				case "advance":
					clk.Advance(s.d)
					continue // no state assertion for pure time steps
				default:
					t.Fatalf("step %d: unknown op %q", i, s.do)
				}
				if got := b.State(); got != s.wantState {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.do, got, s.wantState)
				}
			}
		})
	}
}

// TestBreakerTransitionCallback asserts every state change is reported
// exactly once, in order.
func TestBreakerTransitionCallback(t *testing.T) {
	clk := newFakeClock()
	type tr struct{ from, to BreakerState }
	var seen []tr
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Second,
		Clock:            clk.Now,
		OnTransition:     func(from, to BreakerState) { seen = append(seen, tr{from, to}) },
	})

	b.Failure() // closed -> open
	clk.Advance(time.Second)
	if !b.Allow() { // open -> half-open
		t.Fatal("probe should be admitted after cooldown")
	}
	b.Failure() // half-open -> open
	clk.Advance(time.Second)
	b.Allow()   // open -> half-open
	b.Success() // half-open -> closed

	want := []tr{
		{Closed, Open},
		{Open, HalfOpen},
		{HalfOpen, Open},
		{Open, HalfOpen},
		{HalfOpen, Closed},
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d transitions %v, want %d", len(seen), seen, len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v->%v, want %v->%v",
				i, seen[i].from, seen[i].to, want[i].from, want[i].to)
		}
	}
}

// TestBreakerOpenIsSticky: failures reported while already open
// (in-flight stragglers) neither re-trigger callbacks nor reset the
// cooldown window.
func TestBreakerOpenIsSticky(t *testing.T) {
	clk := newFakeClock()
	transitions := 0
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         10 * time.Second,
		Clock:            clk.Now,
		OnTransition:     func(_, _ BreakerState) { transitions++ },
	})
	b.Failure()
	clk.Advance(9 * time.Second)
	b.Failure() // straggler: must not extend the cooldown
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown measured from the original open, not the straggler failure")
	}
	if transitions != 2 { // closed->open, open->half-open
		t.Fatalf("transitions = %d, want 2", transitions)
	}
}
