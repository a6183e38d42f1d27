package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// gate wraps a replica's handler so a test can make its block
// endpoints — pull and push alike — misbehave on command: refuse them
// with 503, or stall them. A pullOnly gate is a tier that does not
// stream: /stream and /credit answer 404, as a mux without the routes
// does.
type gate struct {
	h        http.Handler
	pullOnly atomic.Bool

	mu     sync.Mutex
	fail   bool
	stall  time.Duration
	stalls int // requests left to stall; negative = every one

	streamOpens atomic.Int64 // stream opens that reached the gate
}

func (g *gate) set(fail bool, stall time.Duration) {
	g.mu.Lock()
	g.fail, g.stall, g.stalls = fail, stall, -1
	g.mu.Unlock()
}

// stallNext stalls the next n block requests only.
func (g *gate) stallNext(n int, stall time.Duration) {
	g.mu.Lock()
	g.stall, g.stalls = stall, n
	g.mu.Unlock()
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/stream") {
		g.streamOpens.Add(1)
	}
	if strings.HasSuffix(r.URL.Path, "/next") ||
		strings.HasSuffix(r.URL.Path, "/stream") ||
		strings.HasSuffix(r.URL.Path, "/credit") {
		g.mu.Lock()
		fail, stall := g.fail, g.stall
		if g.stalls == 0 {
			stall = 0
		} else if g.stalls > 0 && stall > 0 {
			g.stalls--
		}
		g.mu.Unlock()
		if fail {
			http.Error(w, "replica down", http.StatusServiceUnavailable)
			return
		}
		if stall > 0 {
			time.Sleep(stall)
		}
	}
	if g.pullOnly.Load() && (strings.HasSuffix(r.URL.Path, "/stream") || strings.HasSuffix(r.URL.Path, "/credit")) {
		http.NotFound(w, r)
		return
	}
	g.h.ServeHTTP(w, r)
}

// replica builds one service instance over `rows` deterministic tuples
// behind a gate.
func replica(t *testing.T, rows int) (*gate, string) {
	t.Helper()
	_, g, url := replicaWith(t, rows, service.Config{})
	return g, url
}

// replicaWith is replica under cfg, whose catalog it sets, and returns the
// server too.
func replicaWith(t *testing.T, rows int, cfg service.Config) (*service.Server, *gate, string) {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{
		{Name: "k", Type: minidb.Int64},
		{Name: "v", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("v%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = cat
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{h: srv.Handler()}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return srv, g, ts.URL
}

// TestFailoverResumesOnSecondReplica: replica A starts refusing pulls
// mid-query; the breaker opens and the session fails over to replica B,
// resuming from the committed cursor with zero duplicate or missing
// tuples.
func TestFailoverResumesOnSecondReplica(t *testing.T) {
	const rows = 1000
	gateA, urlA := replica(t, rows)
	_, urlB := replica(t, rows)

	reg := metrics.NewRegistry()
	c, err := NewMulti([]string{urlA, urlB}, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err := c.SetResilience(ResilienceConfig{
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)

	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	sess.OnDisturbance = func(reason string) { reasons = append(reasons, reason) }

	seen := make(map[int64]int, rows)
	for !sess.Done() {
		blk, err := sess.Next(context.Background(), 100)
		if err != nil {
			t.Fatalf("pull failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		// Kill replica A once a third of the result set is committed.
		if len(seen) >= rows/3 {
			gateA.set(true, 0)
		}
	}
	assertExactSet(t, seen, rows)

	if got := sess.Failovers(); got != 1 {
		t.Fatalf("session failovers = %d, want 1", got)
	}
	if sess.Endpoint() != urlB {
		t.Fatalf("session endpoint = %s, want %s after failover", sess.Endpoint(), urlB)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "failover") {
		t.Fatalf("disturbance reasons = %q, want one failover notice", reasons)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("wsopt_client_failovers_total"); got != 1 {
		t.Fatalf("failovers_total = %d, want 1", got)
	}
	if got := snap.Counter("wsopt_client_breaker_transitions_total", metrics.L("to", "open")); got < 1 {
		t.Fatalf("breaker transitions to=open = %d, want >= 1", got)
	}
}

// TestStalledReplicaFailsOverAfterOneDeadline: replica A stalls its block
// endpoint well past the adaptive deadline but stays alive — no error, so
// its breaker (threshold 1000) never opens. The expired deadline alone
// must move the session to replica B, at once and at the committed
// cursor: one failover, one disturbance, no tuple duplicated or dropped,
// and the stalled block delivered after about one deadline — not after
// the doubled ones that retrying in place would serve.
func TestStalledReplicaFailsOverAfterOneDeadline(t *testing.T) {
	const (
		rows     = 600
		deadline = 40 * time.Millisecond
	)
	c, reg, gateA, urlB := stallPair(t, rows, deadline)

	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	sess.OnDisturbance = func(reason string) { reasons = append(reasons, reason) }

	seen := make(map[int64]int, rows)
	var slowest time.Duration
	for blocks := 0; !sess.Done(); blocks++ {
		start := time.Now()
		blk, err := sess.Next(context.Background(), 100)
		if err != nil {
			t.Fatalf("pull failed: %v", err)
		}
		slowest = max(slowest, time.Since(start))
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		// After the first committed block (which also seeds the deadline
		// tracker), stall A for far longer than the 40ms deadline.
		if blocks == 0 {
			gateA.set(false, 300*time.Millisecond)
		} else if blk.Endpoint != urlB {
			t.Fatalf("block %d served by %s, want %s: A stalls every pull", blocks, blk.Endpoint, urlB)
		}
	}
	assertExactSet(t, seen, rows)
	assertLeftStalledReplica(t, sess, reg, urlB, reasons, slowest, deadline)
}

// stallPair builds the scenario of the two stalled-replica tests: a
// client over replicas A and B whose adaptive deadline is live after one
// observation and floored at deadline (a healthy replica answers in
// microseconds), and whose breakers (threshold 1000) never open, so that
// only an expired deadline can move a session.
func stallPair(t *testing.T, rows int, deadline time.Duration) (c *Client, reg *metrics.Registry, gateA *gate, urlB string) {
	t.Helper()
	gateA, urlA := replica(t, rows)
	_, urlB = replica(t, rows)
	c, err := NewMulti([]string{urlA, urlB}, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err := c.SetResilience(ResilienceConfig{
		Deadline: resilience.DeadlineConfig{Min: deadline, MinSamples: 1, Multiplier: 1},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	c.SetMetrics(reg)
	return c, reg, gateA, urlB
}

// assertLeftStalledReplica fails unless the session left stalled replica
// A for B by the deadline rule alone: one failover, one disturbance, the
// slowest block delivered after about one deadline, an expiry counted and
// no breaker opened.
func assertLeftStalledReplica(t *testing.T, sess *Session, reg *metrics.Registry, urlB string, reasons []string, slowest, deadline time.Duration) {
	t.Helper()
	if got := sess.Failovers(); got != 1 {
		t.Fatalf("session failovers = %d, want 1", got)
	}
	if sess.Endpoint() != urlB {
		t.Fatalf("session endpoint = %s, want %s after leaving the stalled replica", sess.Endpoint(), urlB)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "failover") {
		t.Fatalf("disturbance reasons = %q, want one failover notice", reasons)
	}
	if slowest >= 2*deadline+100*time.Millisecond {
		t.Fatalf("the stalled block took %v, want about one %v deadline", slowest, deadline)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("wsopt_client_deadline_timeouts_total"); got < 1 {
		t.Fatalf("deadline_timeouts_total = %d, want >= 1", got)
	}
	if got := snap.Counter("wsopt_client_breaker_transitions_total", metrics.L("to", "open")); got != 0 {
		t.Fatalf("breaker opened %d times; only the deadline rule may move this session", got)
	}
}

// TestSingleEndpointBreakerNeverRefuses: with one endpoint the breaker
// records state but must not gate pulls — refusing with nowhere else to
// go would only burn the retry budget — and a block that outlives its
// deadline is retried in place, under a doubled one.
func TestSingleEndpointBreakerNeverRefuses(t *testing.T) {
	const rows = 200
	gateA, urlA := replica(t, rows)
	reg := metrics.NewRegistry()
	c, err := NewMulti([]string{urlA}, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err := c.SetResilience(ResilienceConfig{
		Breaker:  resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
		Deadline: resilience.DeadlineConfig{Min: 40 * time.Millisecond, MinSamples: 1, Multiplier: 1},
	}); err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	// Refuse a handful of pulls: the breaker opens immediately
	// (threshold 1) but pulls must keep flowing once the fault clears.
	gateA.set(true, 0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		gateA.set(false, 0)
	}()
	seen := make(map[int64]int, rows)
	stalledAttempts := 0
	for blocks := 0; !sess.Done(); blocks++ {
		blk, err := sess.Next(context.Background(), 50)
		if err != nil {
			t.Fatalf("pull failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		// Stall the one pull after the first block for four deadlines.
		switch blocks {
		case 0:
			gateA.stallNext(1, 160*time.Millisecond)
		case 1:
			stalledAttempts = blk.Attempts
		}
	}
	assertExactSet(t, seen, rows)
	if stalledAttempts < 2 {
		t.Fatalf("the stalled block took %d attempts, want a retry after its deadline", stalledAttempts)
	}
	if sess.Failovers() != 0 || sess.Endpoint() != urlA {
		t.Fatalf("single-endpoint session moved: %d failovers, endpoint %s", sess.Failovers(), sess.Endpoint())
	}
	if got := reg.Snapshot().Counter("wsopt_client_deadline_timeouts_total"); got < 1 {
		t.Fatalf("deadline_timeouts_total = %d, want >= 1", got)
	}
}

// TestCallerHTTPClientHonouredOnBlockPath: blocks travel through a copy
// of the caller's http.Client without its Timeout — net/http honours one
// with a goroutine and a timer per request, and a pull carries a deadline
// already. The copy keeps everything else the caller configured, and the
// Timeout still bounds a pull: folded into the attempt's deadline, it
// cuts a stalled pull short long before the adaptive fallback (2 min
// with no samples) would — retried in place on one endpoint, failed over
// with two, like any other expired deadline.
func TestCallerHTTPClientHonouredOnBlockPath(t *testing.T) {
	gateA, urlA := replica(t, 100)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{
		Timeout:       60 * time.Millisecond,
		Jar:           jar,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	c, err := New(urlA, wire.XML{}, hc)
	if err != nil {
		t.Fatal(err)
	}
	if c.shc.Timeout != 0 || c.shc.Jar != hc.Jar || c.shc.CheckRedirect == nil || c.shc.Transport != hc.Transport {
		t.Fatalf("the block-path client %+v is not the caller's %+v minus its Timeout", c.shc, hc)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	gateA.stallNext(1, 300*time.Millisecond)
	start := time.Now()
	blk, err := sess.Next(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); blk.Attempts != 2 || took > 250*time.Millisecond {
		t.Fatalf("a pull stalled for 300 ms took %d attempts and %v under a 60 ms http.Client.Timeout, want a retry after one Timeout", blk.Attempts, took)
	}

	// The Timeout is the attempt's deadline, so its expiry is classified as
	// one: counted, and with a second replica it moves the session there
	// instead of retrying the slow one in place.
	gateA, urlA = replica(t, 100)
	_, urlB := replica(t, 100)
	c, err = NewMulti([]string{urlA, urlB}, wire.XML{}, hc)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	sess, err = c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	gateA.stallNext(1, 300*time.Millisecond)
	blk, err = sess.Next(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Endpoint != urlB || sess.Failovers() != 1 || reg.Snapshot().Counter("wsopt_client_deadline_timeouts_total") != 1 {
		t.Fatalf("with two replicas the block came from %s after %d failovers and %d deadline expiries, want %s, 1, 1",
			blk.Endpoint, sess.Failovers(), reg.Snapshot().Counter("wsopt_client_deadline_timeouts_total"), urlB)
	}
}

func TestBackoffFullJitterBoundedByDelay(t *testing.T) {
	const delay = 60 * time.Millisecond
	start := time.Now()
	next, err := backoff(context.Background(), delay, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > delay+40*time.Millisecond {
		t.Fatalf("jittered sleep took %v, want <= ~%v", elapsed, delay)
	}
	if next != 2*delay {
		t.Fatalf("next delay = %v, want %v", next, 2*delay)
	}
}

func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	floor := 50 * time.Millisecond
	lastErr := markTransientRetryAfter(fmt.Errorf("boom"), floor)
	start := time.Now()
	if _, err := backoff(context.Background(), time.Millisecond, time.Second, lastErr); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("slept %v, want >= Retry-After floor %v", elapsed, floor)
	}
}

func TestBackoffCapsAtMaxDelay(t *testing.T) {
	next, err := backoff(context.Background(), 8*time.Millisecond, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != 10*time.Millisecond {
		t.Fatalf("next delay = %v, want cap 10ms", next)
	}
}

func TestParseRetryAfter(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"0", 0},
		{"-2", 0},
		{"garbage", 0},
		{time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(mk(tc.in)); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// A future HTTP-date parses to roughly the remaining interval.
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	got := parseRetryAfter(mk(future))
	if got <= 0 || got > 6*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~5s", got)
	}
}
