package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// streamSession is the push Transport: one long-lived chunked response
// the server frames blocks onto, flow-controlled by credit grants the
// client posts on a side channel. It wraps the pull Session and shares
// its cursor state (seq, committed, endpoint), so the resume and
// failover machinery — re-open at the committed tuple offset — is the
// same code path the pull transport uses.
//
// Not safe for concurrent use, like Session. The only concurrency is
// the grant loop goroutine, which owns nothing but the latest grant
// snapshot it is told to post.
type streamSession struct {
	s   *Session
	c   *Client
	win func() int // live window target; nil = fixed config default

	// Stream connection state. body is nil between streams; buf is the
	// frame payload buffer reused across reads.
	body   io.ReadCloser
	cancel context.CancelFunc
	buf    []byte

	// Last grant the server has (or will momentarily have): acks are
	// posted when enough frames are pending or a knob changed, so a
	// grant round-trip is amortized over ~half a window of frames and
	// stays entirely off the frame-delivery critical path.
	ackQueued   uint64
	grantSize   int
	grantWindow int

	g grantLoop
}

func newStreamSession(s *Session, win func() int) *streamSession {
	t := &streamSession{s: s, c: s.c, win: win}
	t.g.c = s.c
	t.g.cond = sync.NewCond(&t.g.mu)
	return t
}

func (t *streamSession) Done() bool { return t.s.done }

// Close tears the stream down, stops the grant loop and deletes the
// server-side session.
func (t *streamSession) Close(ctx context.Context) error {
	t.g.stop()
	t.teardown()
	return t.s.Close(ctx)
}

// windowTarget is the credit window to grant right now.
func (t *streamSession) windowTarget() int {
	w := t.c.push.Window
	if t.win != nil {
		if v := t.win(); v > 0 {
			w = v
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// errSessionLost marks a stream failure whose cause is the server no
// longer knowing the session (expiry, restart): recovery is a fresh
// session at the committed cursor, not a plain stream reconnect.
var errSessionLost = errors.New("client: push session lost")

// Next delivers the next block off the stream, opening or re-opening
// the stream as needed. Transient failures — severed streams, frame
// gaps, watchdog expiries — are retried under the client's RetryPolicy;
// a reconnect resumes at from=seq+1 and the server replays the unacked
// tail, so no tuple is skipped or duplicated. A lost session is
// re-opened at the committed tuple cursor; when the current endpoint's
// breaker refuses traffic and another replica exists, the session fails
// over exactly as a pull would.
func (t *streamSession) Next(ctx context.Context, size int) (*Block, error) {
	s := t.s
	if s.done {
		return nil, fmt.Errorf("client: session %s already exhausted", s.id)
	}
	if size < 1 {
		return nil, fmt.Errorf("client: block size %d must be positive", size)
	}
	c := t.c
	var (
		blk       *Block
		failovers int
	)
	attempts, err := c.retryBlock(ctx, "push", &s.seq, func(attempt int) (err error) {
		blk, err = t.nextAttempt(ctx, size, attempt)
		return err
	}, func(err error) bool {
		if t.body != nil {
			t.teardown()
			c.metrics.pushReconnects.Inc()
		}
		// The endpoint is up but forgot the session: open a fresh one at
		// the committed cursor on the same endpoint — the server already
		// answered, so there is nothing to wait for.
		if errors.Is(err, errSessionLost) && t.reopenSession(ctx) == nil {
			return true
		}
		return s.failAway(ctx, &failovers)
	})
	if err != nil {
		return nil, err
	}
	blk.Attempts = attempts
	blk.Failovers = failovers
	s.ep.Success()
	c.deadline.Observe(blk.Elapsed, len(blk.Rows))
	s.adopt(blk)
	s.seq++
	s.done = blk.Done
	s.committed += len(blk.Rows)
	if blk.Done {
		t.finishStream()
	} else {
		t.queueGrant(size)
	}
	c.metrics.pushFrames.Inc()
	c.metrics.recordBlock(blk)
	return blk, nil
}

// nextAttempt reads one fresh frame off the stream (opening it first if
// needed) under the adaptive per-block deadline. The watchdog cancels
// the whole stream on expiry: a frame overdue past the deadline means
// the stream is wedged (dead connection, lost credits), and a reconnect
// re-grants and replays — cheaper than diagnosing.
func (t *streamSession) nextAttempt(ctx context.Context, size, attempt int) (*Block, error) {
	c := t.c
	s := t.s
	if c.pool.Len() > 1 && !s.ep.Allow() {
		return nil, markTransient(fmt.Errorf("client: endpoint %s: circuit breaker open", s.ep.URL()))
	}
	if t.body == nil {
		if err := t.openStream(ctx, size); err != nil {
			// A lost session is not the endpoint's failure — it answered.
			if isTransient(err) && !errors.Is(err, errSessionLost) {
				s.ep.Failure()
			}
			return nil, err
		}
	} else {
		t.queueGrant(size)
	}

	stopCancel := context.AfterFunc(ctx, t.cancel)
	defer stopCancel()
	expired := make(chan struct{})
	watchdog := time.AfterFunc(c.attemptDeadline(size, attempt), func() {
		close(expired)
		t.cancel()
	})
	defer watchdog.Stop()

	t1 := time.Now()
	for {
		f, buf, err := wire.ReadFrame(t.body, wire.MaxFramePayload, t.buf)
		t.buf = buf
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: read push frame: %w", err)
			}
			select {
			case <-expired:
				c.metrics.deadlineTimeouts.Inc()
			default:
			}
			// io.EOF here is the server ending the stream early (takeover,
			// shutdown) — still just a reconnect for us.
			s.ep.Failure()
			return nil, markTransient(fmt.Errorf("client: read push frame: %w", err))
		}
		if f.Type == wire.FrameError {
			return nil, fmt.Errorf("client: push stream error from server: %s", f.Payload)
		}
		if f.Seq <= s.seq {
			// Replay overlap after a reconnect raced a credit: already
			// delivered, skip.
			continue
		}
		if f.Seq != s.seq+1 {
			s.ep.Failure()
			return nil, markTransient(fmt.Errorf("client: push frame gap: got seq %d, want %d", f.Seq, s.seq+1))
		}
		sc := scratchPool.Get().(*wire.Scratch)
		schema, rows, err := wire.DecodeBlock(c.codec, bytes.NewReader(f.Payload), sc)
		if err != nil {
			scratchPool.Put(sc)
			s.ep.Failure()
			return nil, markTransient(fmt.Errorf("client: decode push frame: %w", err))
		}
		meta := service.FrameMeta(f)
		if meta.Tuples != len(rows) {
			scratchPool.Put(sc)
			s.ep.Failure()
			return nil, markTransient(fmt.Errorf("client: frame announced %d tuples but decoded %d", meta.Tuples, len(rows)))
		}
		blk := &Block{Rows: rows, Schema: schema, Elapsed: time.Since(t1), Bytes: int64(len(f.Payload)), Endpoint: s.ep.URL(), scratch: sc}
		blk.setMeta(meta)
		return blk, nil
	}
}

// openStream opens the long-lived stream at from=seq+1. The open itself
// carries the initial size/window grant and implies a cumulative ack of
// everything before from.
func (t *streamSession) openStream(ctx context.Context, size int) error {
	s := t.s
	u, err := joinURL(s.ep.URL(), "sessions", s.id, "stream")
	if err != nil {
		return err
	}
	win := t.windowTarget()
	u += fmt.Sprintf("?size=%d&window=%d&from=%d", size, win, s.seq+1)
	// The stream outlives any single Next call, so it hangs off its own
	// cancel — the watchdog and Next's ctx hook into it per read.
	sctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, u, nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := t.c.shc.Do(req)
	if err != nil {
		cancel()
		return transportErr(ctx, "open push stream", err)
	}
	if resp.StatusCode != http.StatusOK {
		err := httpFailure("open push stream", resp)
		resp.Body.Close()
		cancel()
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return markTransient(fmt.Errorf("%w: %v", errSessionLost, err))
		case retryable(resp.StatusCode):
			return markTransient(err)
		}
		return err
	}
	t.body = resp.Body
	t.cancel = cancel
	t.ackQueued = s.seq
	t.grantSize = size
	t.grantWindow = win
	return nil
}

// queueGrant posts a credit update when it is due: the block size or
// window target changed, or at least half the window is pending ack.
// The post itself happens on the grant loop goroutine, off the
// frame-read path; coalescing there means a slow control channel
// degrades to fewer, fresher grants rather than a backlog.
func (t *streamSession) queueGrant(size int) {
	s := t.s
	win := t.windowTarget()
	cadence := uint64(win / 2)
	if cadence < 1 {
		cadence = 1
	}
	if size == t.grantSize && win == t.grantWindow && s.seq-t.ackQueued < cadence {
		return
	}
	t.g.post(s.ep.URL(), s.id, s.seq, win, size)
	t.ackQueued = s.seq
	t.grantSize = size
	t.grantWindow = win
}

// finishStream drains the chunked EOF after the done frame and closes
// the body, so the connection goes back to the keep-alive pool — the
// same drain-to-EOF discipline the pull path applies to every response.
// Cancelling before EOF would kill the connection instead.
func (t *streamSession) finishStream() {
	if t.body == nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(t.body, drainLimit))
	t.body.Close()
	t.body = nil
	t.cancel()
	t.cancel = nil
}

// teardown abandons the stream mid-body: cancel first so the blocked
// read unsticks, then close. The connection is lost by design — there
// are unread frames on it.
func (t *streamSession) teardown() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
	if t.body != nil {
		t.body.Close()
		t.body = nil
	}
}

// reopenSession replaces a lost server-side session with a fresh one on
// the same endpoint, resuming at the committed tuple cursor. The stream
// itself re-opens lazily on the next attempt (from=1 on the new
// session).
func (t *streamSession) reopenSession(ctx context.Context) error {
	s := t.s
	id, _, _, err := t.c.openSessionOn(ctx, s.ep, s.q, s.committed)
	if err != nil {
		return err
	}
	s.ep.Success()
	s.id = id
	s.seq = 0
	if s.OnDisturbance != nil {
		s.OnDisturbance("push session re-opened on " + s.ep.URL())
	}
	return nil
}

// grantLoop is the credit side channel: one goroutine posting the
// latest grant snapshot, started lazily on the first post. Posts
// coalesce — if grants queue up faster than they send, only the newest
// survives, which is always safe because acks are cumulative and
// size/window grants are last-writer-wins on the server too.
type grantLoop struct {
	c    *Client
	mu   sync.Mutex
	cond *sync.Cond

	ep, id       string
	acked        uint64
	window, size int

	dirty, closed bool
	// exited is non-nil once the loop has started and is closed when it
	// returns; stop waits on it.
	exited chan struct{}
}

// post queues the newest grant snapshot for sending.
func (g *grantLoop) post(ep, id string, acked uint64, window, size int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.ep, g.id, g.acked, g.window, g.size = ep, id, acked, window, size
	g.dirty = true
	if g.exited == nil {
		g.exited = make(chan struct{})
		go g.run()
	}
	g.cond.Signal()
}

// stop ends the loop and waits for it, so that neither the goroutine nor
// a credit POST outlives the session. A send in flight is waited for,
// not cancelled — cancelling an HTTP/1.1 request costs its keep-alive
// connection — and its own timeout bounds the wait.
func (g *grantLoop) stop() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	exited := g.exited
	g.mu.Unlock()
	if exited != nil {
		<-exited
	}
}

func (g *grantLoop) run() {
	defer close(g.exited)
	for {
		g.mu.Lock()
		for !g.dirty && !g.closed {
			g.cond.Wait()
		}
		if g.closed {
			g.mu.Unlock()
			return
		}
		ep, id, acked, window, size := g.ep, g.id, g.acked, g.window, g.size
		g.dirty = false
		g.mu.Unlock()
		g.send(ep, id, acked, window, size)
	}
}

// send posts one credit grant, best-effort: a lost grant only stalls
// the producer until the read watchdog reconnects, and the reconnect's
// from carries the ack the grant would have.
func (g *grantLoop) send(ep, id string, acked uint64, window, size int) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	u, err := joinURL(ep, "sessions", id, "credit")
	if err != nil {
		return
	}
	u += fmt.Sprintf("?acked=%d&window=%d&size=%d", acked, window, size)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	resp, err := g.c.hc.Do(req)
	if err != nil {
		return
	}
	drain(resp)
	g.c.metrics.pushGrants.Inc()
}
