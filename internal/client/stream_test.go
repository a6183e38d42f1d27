package client

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/metrics"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// TestRunPushDeliversAll runs the same adaptive query over both
// transports and asserts the push run delivers the identical result
// volume — the transport must be invisible to the query.
func TestRunPushDeliversAll(t *testing.T) {
	const rows = 700
	cfg := core.Config{
		InitialSize: 50, Limits: core.Limits{Min: 10, Max: 200},
		B1: 30, B2: 25, AvgHorizon: 1, CriterionWindow: 5, CriterionThreshold: 1,
	}

	c, srv := testStack(t, rows, wire.Binary{})
	ctl, err := core.NewConstant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pull, err := c.Run(context.Background(), Query{Table: "data"}, ctl, MetricPerTuple, true)
	if err != nil {
		t.Fatal(err)
	}

	c.SetPush(PushConfig{Enabled: true})
	ctl2, err := core.NewConstant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	push, err := c.Run(context.Background(), Query{Table: "data"}, ctl2, MetricPerTuple, true)
	if err != nil {
		t.Fatalf("push run failed: %v", err)
	}
	if push.Tuples != pull.Tuples || push.Tuples != rows {
		t.Fatalf("push delivered %d tuples, pull %d, want %d", push.Tuples, pull.Tuples, rows)
	}
	st := srv.Stats()
	if st.PushStreamsOpened < 1 {
		t.Fatal("push run opened no stream server-side")
	}
	if st.PushFramesSent < int64(push.Blocks) {
		t.Fatalf("server sent %d frames but client accounted %d blocks", st.PushFramesSent, push.Blocks)
	}
}

// TestPushKeepAliveReuse is the stream-path extension of the PR 5
// dial-counting regression gate: two whole push queries — creating
// stream opens, credit grants, deletes — must ride at most two dialed
// connections (the stream occupies one while grants and management
// traffic share another), with both reused across queries. A stream
// body abandoned short of EOF after the done frame would force a
// re-dial per query. Wait sits between the two queries because a finished
// run leaves its close behind it: the first query's DELETE would otherwise
// race the second query's first credit for the idle connection, and the
// loser dials a third.
func TestPushKeepAliveReuse(t *testing.T) {
	var dials atomic.Int64
	const rows = 400
	c, _ := testStackHC(t, rows, wire.Binary{}, newDialCountingClient(&dials))
	c.SetPush(PushConfig{Enabled: true, Window: 2})

	for q := 0; q < 2; q++ {
		res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(40), MetricPerBlock, false)
		if err != nil {
			t.Fatalf("push run %d failed: %v", q, err)
		}
		if res.Tuples != rows {
			t.Fatalf("push run %d delivered %d tuples, want %d", q, res.Tuples, rows)
		}
		if err := c.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got > 2 {
		t.Fatalf("two push queries used %d dials, want <= 2 (stream bodies not drained to EOF?)", got)
	}
}

// TestPushChaosExactlyOnce: the service randomly severs and truncates
// push frames and refuses stream opens; reconnects must replay the
// unacked tail so every tuple arrives exactly once.
func TestPushChaosExactlyOnce(t *testing.T) {
	const rows = 3000
	reg := metrics.NewRegistry()
	c, srv := chaosStack(t, rows, wire.Binary{}, 7, reg)
	c.SetPush(PushConfig{Enabled: true, Window: 4})

	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int, rows)
	retries := 0
	for !sess.Done() {
		blk, err := sess.Next(context.Background(), 100)
		if err != nil {
			t.Fatalf("push pull under chaos failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		retries += blk.Attempts - 1
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertExactSet(t, seen, rows)
	assertNoRetainedBlocks(t, srv)

	st := srv.Stats()
	injected := st.FaultsInjected.Dropped + st.FaultsInjected.Truncated + st.FaultsInjected.Refused
	if injected == 0 {
		t.Fatal("chaos run injected no faults; the test proved nothing")
	}
	if retries == 0 {
		t.Fatal("client reported no retries despite injected faults")
	}
	if st.FaultsInjected.Dropped+st.FaultsInjected.Truncated > 0 && st.PushFramesReplayed == 0 {
		t.Fatal("streams were severed but no frame was replayed")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("wsopt_client_push_reconnects_total"); got < 1 {
		t.Fatal("no push reconnects recorded despite severed streams")
	}
	t.Logf("push chaos: %d faults, %d retries, %d frames replayed, %d reconnects",
		injected, retries, st.PushFramesReplayed, snap.Counter("wsopt_client_push_reconnects_total"))
}

// TestPushSessionLostReopens deletes the server-side session mid-stream;
// the client must open a fresh session at the committed cursor and
// deliver the remainder exactly once.
func TestPushSessionLostReopens(t *testing.T) {
	const rows = 600
	c, _ := testStack(t, rows, wire.Binary{})
	c.SetRetry(RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	c.SetPush(PushConfig{Enabled: true, Window: 2})

	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	sess.OnDisturbance = func(reason string) { reasons = append(reasons, reason) }

	seen := make(map[int64]int, rows)
	killed := false
	for !sess.Done() {
		blk, err := sess.Next(ctx, 50)
		if err != nil {
			t.Fatalf("push pull failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		if !killed && len(seen) >= rows/3 {
			killed = true
			// Delete the session behind the client's back: the stream
			// ends without a done frame and the reconnect finds a 404.
			u, err := joinURL(sess.Endpoint(), "sessions", sess.ID())
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			drain(resp)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactSet(t, seen, rows)
	if !killed {
		t.Fatal("session was never deleted; the test proved nothing")
	}
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "re-opened") {
			found = true
		}
	}
	if !found {
		t.Fatalf("disturbances = %q, want a session re-open notice", reasons)
	}
}

// pushFailoverPair is a two-replica push client: A, and B, pull only
// when asked to, A's breaker opening after two failures, frame deadlines of
// 50–250 ms and a window of 2, so that refusing A mid-query stalls its
// stream and moves the session to B within a few retries.
func pushFailoverPair(t *testing.T, rows int, pullOnlyA, pullOnlyB bool) (c *Client, srvA, srvB *service.Server, gateA *gate, urlB string) {
	t.Helper()
	srvA, gateA, urlA := replicaWith(t, rows, service.Config{})
	srvB, gateB, urlB := replicaWith(t, rows, service.Config{})
	gateA.pullOnly.Store(pullOnlyA)
	gateB.pullOnly.Store(pullOnlyB)
	c, err := NewMulti([]string{urlA, urlB}, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err := c.SetResilience(ResilienceConfig{
		Breaker:  resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		Deadline: resilience.DeadlineConfig{Min: 50 * time.Millisecond, Max: 250 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true, Window: 2})
	return c, srvA, srvB, gateA, urlB
}

// drainFailingA reads sess to the end, refusing A's block endpoints once
// a third of the rows has arrived, then closes the session and waits for
// the client's cleanup. Every key must arrive exactly once, the last of
// them from urlB.
func drainFailingA(t *testing.T, c *Client, sess *Session, rows int, gateA *gate, urlB string) {
	t.Helper()
	ctx := context.Background()
	seen := make(map[int64]int, rows)
	for !sess.Done() {
		blk, err := sess.Next(ctx, 100)
		if err != nil {
			t.Fatalf("push pull failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		if len(seen) >= rows/3 {
			gateA.set(true, 0)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactSet(t, seen, rows)
	if sess.Failovers() < 1 || sess.Endpoint() != urlB {
		t.Fatalf("session ended on %s after %d failovers, want %s after at least one", sess.Endpoint(), sess.Failovers(), urlB)
	}
}

// TestPushFailoverResumesOnSecondReplica: replica A starts refusing the
// push endpoints mid-stream (credits bounce, the stream stalls, the
// watchdog reconnects into 503s); the breaker opens and the session
// fails over to replica B, resuming at the committed cursor.
func TestPushFailoverResumesOnSecondReplica(t *testing.T) {
	const rows = 1200
	c, _, _, gateA, urlB := pushFailoverPair(t, rows, false, false)
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	drainFailingA(t, c, sess, rows, gateA, urlB)
}

// TestPushStalledReplicaFailsOver is the push twin of
// TestStalledReplicaFailsOverAfterOneDeadline: replica A starts stalling
// its push endpoints while the stream is open, so the credit grants hang,
// the window runs dry with unacked frames in flight and the next frame
// outlives its deadline — without a single error, so A's breaker
// (threshold 1000) never opens. The watchdog's expiry alone must move the
// session to replica B at the committed cursor, every tuple exactly once.
func TestPushStalledReplicaFailsOver(t *testing.T) {
	const (
		rows     = 1200
		deadline = 40 * time.Millisecond
	)
	c, reg, gateA, urlB := stallPair(t, rows, deadline)
	c.SetPush(PushConfig{Enabled: true, Window: 4})

	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	sess.OnDisturbance = func(reason string) { reasons = append(reasons, reason) }

	seen := make(map[int64]int, rows)
	var slowest time.Duration
	for blocks := 0; !sess.Done(); blocks++ {
		start := time.Now()
		blk, err := sess.Next(ctx, 100)
		if err != nil {
			t.Fatalf("push pull failed: %v", err)
		}
		slowest = max(slowest, time.Since(start))
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		// The open granted a window of 4: stalling A from here on leaves
		// frames 2-4 deliverable and every ack for them hanging.
		if blocks == 0 {
			gateA.set(false, 300*time.Millisecond)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactSet(t, seen, rows)
	assertLeftStalledReplica(t, sess, reg, urlB, reasons, slowest, deadline)
}

// TestPushWindowFollowsController: a vector controller with a live
// window dimension drives the credit window; the transport must pass
// its target through to the server (visible as credit grants with the
// controller's window).
//
// The controller's window dimension is kept to [1, 3], under the explicit
// window configured beside it and far under the server's cap: every
// window on the wire must be the controller's, so neither the
// configuration nor the default ever overrides a controller that owns the
// knob.
func TestPushWindowFollowsController(t *testing.T) {
	const rows = 2500
	asked := new(windowsAsked)
	c, srv := testStackHC(t, rows, wire.Binary{}, &http.Client{Transport: asked})
	c.SetPush(PushConfig{Enabled: true, Window: 9})

	vcfg := core.DefaultPushVectorConfig()
	vcfg.Dims[core.DimSize] = core.DimConfig{
		Initial: 100, Limits: core.Limits{Min: 50, Max: 400}, B1: 50, B2: 50,
	}
	vcfg.Dims[core.DimWindow] = core.DimConfig{Initial: 2, Limits: core.Limits{Min: 1, Max: 3}, B1: 1, B2: 1}
	ctl, err := core.NewVector(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunVector(context.Background(), Query{Table: "data"}, ctl, VectorRunConfig{
		UseInjected: true,
		ChunkTuples: 600,
		MaxStreams:  2,
	})
	if err != nil {
		t.Fatalf("push vector run failed: %v", err)
	}
	if res.Tuples != rows {
		t.Fatalf("vector push run delivered %d tuples, want %d", res.Tuples, rows)
	}
	st := srv.Stats()
	if st.PushStreamsOpened < 1 {
		t.Fatal("vector push run opened no stream")
	}
	if got := ctl.Vector().Window; got < 1 {
		t.Fatalf("controller window = %d, want >= 1", got)
	}
	windows := asked.all()
	if len(windows) == 0 {
		t.Fatal("no stream open or credit grant carried a window")
	}
	for _, w := range windows {
		if w < 1 || w > 3 {
			t.Fatalf("windows asked for: %v; the controller's dimension is [1, 3]", windows)
		}
	}
}

// TestPushStreamOpenHonoursContext: a replica that accepts the stream
// open and never answers used to hold Next for ever — the open ran under
// neither the caller's context nor the watchdog. It returns by the
// caller's deadline, and says so.
func TestPushStreamOpenHonoursContext(t *testing.T) {
	g, url := replica(t, 100)
	inner := g.h
	g.h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	})
	c, err := New(url, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Next(ctx, 10)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Next returned after %v under a 200 ms context", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Next = %v, want an error wrapping context.DeadlineExceeded", err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPushStreamOpenStallFailsOver: replica A stalls the stream open
// itself. The open runs under the block's adaptive deadline like every
// read after it, so its expiry moves the session to replica B: every key
// exactly once, all of them from B, one failover.
func TestPushStreamOpenStallFailsOver(t *testing.T) {
	const (
		rows     = 600
		deadline = 40 * time.Millisecond
	)
	c, reg, gateA, urlB := stallPair(t, rows, deadline)
	ctx := context.Background()
	// One block over pull arms the adaptive deadline; then A stalls every
	// block endpoint, the stream open first among them.
	warm, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Next(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(ctx); err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	gateA.set(false, 300*time.Millisecond)

	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	sess.OnDisturbance = func(reason string) { reasons = append(reasons, reason) }
	seen := make(map[int64]int, rows)
	var slowest time.Duration
	for !sess.Done() {
		start := time.Now()
		blk, err := sess.Next(ctx, 100)
		if err != nil {
			t.Fatalf("push pull failed: %v", err)
		}
		slowest = max(slowest, time.Since(start))
		if blk.Endpoint != urlB {
			t.Fatalf("a block came from %s, want %s: A never opens a stream", blk.Endpoint, urlB)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	assertExactSet(t, seen, rows)
	assertLeftStalledReplica(t, sess, reg, urlB, reasons, slowest, deadline)
}

// TestPushFailoverOntoReplicaWithoutStreams: a streaming session fails
// over from A to B, which does not stream. failAway opens a session on B
// by POST /sessions; its stream open meets the mux's 404, which reads as
// a lost session, so the session is renamed on B, and that name's open
// falls back to pull. The renaming stays on B, yet the session it leaves
// is deleted like one a failover leaves: after Wait neither replica holds
// a session (it used to hold an admission slot on B until the TTL).
func TestPushFailoverOntoReplicaWithoutStreams(t *testing.T) {
	const rows = 1200
	c, srvA, srvB, gateA, urlB := pushFailoverPair(t, rows, false, true)
	sess, err := c.session(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	drainFailingA(t, c, sess, rows, gateA, urlB)
	if n := srvB.Stats().SessionsOpened; n != 2 {
		t.Errorf("B opened %d sessions, want 2: the failover's and the fall-back's", n)
	}
	if a, b := srvA.SessionCount(), srvB.SessionCount(); a != 0 || b != 0 {
		t.Errorf("after Close and Wait A holds %d sessions and B %d, want none", a, b)
	}
}

// TestPushFallenBackSessionStreamsAfterFailover: a push session named on
// A, which does not stream, falls back to pull there; when A starts
// refusing blocks the session fails over to B, which streams — and it
// streams there. bind decides the way on every move: a session that fell
// back used to pull for ever, wherever it went.
func TestPushFallenBackSessionStreamsAfterFailover(t *testing.T) {
	const rows = 1200
	c, _, srvB, gateA, urlB := pushFailoverPair(t, rows, true, false)
	sess, err := c.session(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	drainFailingA(t, c, sess, rows, gateA, urlB)
	if n := gateA.streamOpens.Load(); n != 1 {
		t.Errorf("A saw %d stream opens, want the one that found it does not stream", n)
	}
	if st := srvB.Stats(); st.PushStreamsOpened < 1 || st.PushFramesSent == 0 {
		t.Errorf("B opened %d streams and sent %d frames: the session kept pulling after its failover", st.PushStreamsOpened, st.PushFramesSent)
	}
}
