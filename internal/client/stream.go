package client

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// PushConfig enables and tunes the client side of the server-push
// streaming transport (DESIGN.md §19).
type PushConfig struct {
	// Enabled switches every run mode's sessions from pull to push.
	Enabled bool
	// Window pins the credit window when the controller has no window
	// knob (core.VectorOf reports 0). Zero or less, the default, asks for
	// the largest window the server announces it applies (1024 unless
	// `wsblockd -push-window` says otherwise), which also bounds a pinned
	// one: over a link with real delay a small window is stop-and-wait.
	// Whatever the window, the server's byte budget bounds what it pins.
	Window int
}

// SetPush configures the push transport. Call before opening sessions.
func (c *Client) SetPush(pc PushConfig) { c.push = pc }

// way is how a session's blocks arrive. Session.bind is its one writer:
// it decides from the opened value it binds and from what the client
// knows, on every move, so a session that lands on another replica is
// framed as that replica serves it.
type way uint8

const (
	// pulling: one /next request per block. Push is off, the session is a
	// transparent gateway's (the gateway tier does not proxy the stream
	// endpoints), or its endpoint declined a stream before (pullOnly).
	pulling way = iota
	// pending: a name the client picked (Client.name) that no request has
	// created. Only its own stream open creates it, and where the tier
	// declines, that open falls back (fallBack); it is never pulled.
	pending
	// streaming: a created session whose blocks the server frames onto
	// one long-lived /stream response.
	streaming
)

// stream is a session's push framing: one long-lived chunked response
// the server frames blocks onto, flow-controlled by credit grants posted
// on a side channel. The block step (Session.Next), the cursor (commit),
// the block reader (readBlock) and the ways a session moves (failAway,
// rebind) are the session's own, so resume and failover — re-open at the
// committed tuple offset — are the code path a pull takes. Only the
// pending and streaming ways touch this state.
//
// The only concurrency is the grant loop goroutine, which owns nothing
// but the latest grant snapshot it is told to post.
type stream struct {
	// win is the controller's window knob, handed over by run.transfer;
	// nil or 0 = it has none.
	win func() int
	// cap is the largest window the server said it applies
	// (HeaderPushWindow; 0 = no stream open has said yet, the default cap
	// applies). budget is the stream's byte budget (HeaderPushWindowBytes;
	// 0 = none announced), unacked the payload bytes read since the last
	// grant acked.
	cap             int
	budget, unacked int

	// Connection state. body is nil between streams; ctx is the stream's
	// lifetime, which its credit grants share; buf is the frame payload
	// buffer reused across reads.
	body   io.ReadCloser
	ctx    context.Context
	cancel context.CancelFunc
	buf    []byte

	// granted is the last grant the server has (or will momentarily
	// have): acks are posted when enough frames are pending or a knob
	// changed, so a grant round-trip is amortized over a batch of frames
	// (queueGrant) and stays entirely off the frame-delivery critical path.
	granted service.Query

	g grantLoop
}

// windowTarget is the credit window to ask for right now: the window of a
// controller that owns the knob, then an explicit PushConfig.Window, each
// bounded by the cap the server announced; with neither, that cap — the
// producer is never held for credit the server was willing to extend.
func (s *Session) windowTarget() int {
	win, limit := s.c.push.Window, cmp.Or(s.stream.cap, service.DefaultPushMaxWindow)
	if s.stream.win != nil {
		if v := s.stream.win(); v > 0 {
			win = v
		}
	}
	if win <= 0 || win > limit {
		return limit
	}
	return win
}

// errSessionLost marks a stream failure whose cause is the server no
// longer knowing the session (expiry, restart): recovery is a fresh
// session at the committed cursor, not a plain stream reconnect.
var errSessionLost = errors.New("client: push session lost")

// errNoStream marks a creating open answered "no such route": the client
// named the session a moment ago, so it is not lost — the tier does not
// stream.
var errNoStream = errors.New("client: endpoint does not stream")

// reconnect is the stream framing's way around a failed attempt that
// needs no waiting: the broken stream is torn down (the next attempt
// re-opens it at from=seq+1 and the server replays the unacked tail), and
// a session the endpoint forgot is replaced by a fresh name, locally —
// the server already answered, so the first time in a block there is
// nothing to wait for; a session lost again costs an attempt. lost counts
// the losses within one block. A pulled session has no stream and is
// never lost, so it always returns false.
func (s *Session) reconnect(err error, lost *int) bool {
	if s.stream.body != nil {
		s.stream.teardown()
		s.c.metrics.pushReconnects.Inc()
	}
	if !errors.Is(err, errSessionLost) || !s.reopenSession() {
		return false
	}
	*lost++
	return *lost == 1
}

// streamAttempt reads one fresh frame off the stream (opening it first if
// needed) under the adaptive per-block deadline. The watchdog cancels
// the whole stream on expiry: a frame overdue past the deadline means
// the stream is wedged (dead connection, lost credits, a stalled
// replica), and a reconnect — here or, when failAway finds one, on
// another replica — re-grants and replays: cheaper than diagnosing.
func (s *Session) streamAttempt(ctx context.Context, size, attempt int) (*Block, error) {
	t, c := &s.stream, s.c
	// The stream outlives any single Next call, so it hangs off its own
	// cancel; the caller's context and the watchdog hook into that per
	// attempt — before the open, so that a replica which accepts a stream
	// and never answers is left like one that stalls a frame.
	opening := t.body == nil
	if opening {
		t.ctx, t.cancel = context.WithCancel(context.Background())
	}
	cancel := t.cancel
	stopCancel := context.AfterFunc(ctx, cancel)
	defer stopCancel()
	var expired atomic.Bool
	watchdog := time.AfterFunc(c.attemptDeadline(size, attempt), func() {
		expired.Store(true)
		cancel()
	})
	defer watchdog.Stop()

	if !opening {
		s.queueGrant(size)
	} else if err := s.openStream(ctx, size); err != nil {
		t.teardown()
		if errors.Is(err, errNoStream) {
			if err = s.fallBack(ctx, err); err == nil {
				return s.pullAttempt(ctx, size, attempt)
			}
		} else if expired.Load() && ctx.Err() == nil {
			err = c.deadlineExpired(err)
		}
		// A lost session is not the endpoint's failure — it answered.
		if isTransient(err) && !errors.Is(err, errSessionLost) {
			s.ep.Failure()
		}
		return nil, err
	}

	t1 := time.Now()
	for {
		f, buf, err := wire.ReadFrame(t.body, wire.MaxFramePayload, t.buf)
		t.buf = buf
		var blk *Block
		switch {
		case err != nil:
			// io.EOF here is the server ending the stream early (takeover,
			// shutdown) — still just a reconnect for us.
		case f.Type == wire.FrameError:
			return nil, fmt.Errorf("client: push stream error from server: %s", f.Payload)
		case f.Seq <= s.seq:
			// Replay overlap after a reconnect raced a credit: already
			// delivered, skip.
			continue
		case f.Seq != s.seq+1:
			err = fmt.Errorf("frame gap: got seq %d, want %d", f.Seq, s.seq+1)
		default:
			// The scratch adopts the frame's buffer, and the stream reads
			// its next frame into the one the scratch held: one copy of a
			// binary block, the socket read's.
			sc := scratchPool.Get().(*wire.Scratch)
			view, spare, verr := wire.ViewPayload(s.c.codec, f.Payload, sc)
			t.buf = spare
			blk, err = s.newBlock(sc, view, verr, int64(len(f.Payload)), time.Since(t1), service.FrameMeta(f))
		}
		if err == nil {
			t.unacked += len(f.Payload)
			return blk, nil
		}
		err = fmt.Errorf("client: read push frame: %w", err)
		if ctx.Err() != nil {
			return nil, err
		}
		if expired.Load() {
			err = c.deadlineExpired(err)
		}
		s.ep.Failure()
		return nil, markTransient(err)
	}
}

// fallBack opens the session the way a tier without push takes it — POST
// /sessions on the same endpoint, remembered for the client's later
// sessions, so that bind makes every block of this one a pull from here
// on. A refusal of that request is the answer to the open: an unknown
// table's 404 reads the same on both ways in.
func (s *Session) fallBack(ctx context.Context, cause error) error {
	o, err := s.c.openSessionOn(ctx, s.ep, s.q, s.committed)
	if err != nil {
		return fmt.Errorf("%w (after %v)", err, cause)
	}
	s.c.pullOnly.Store(s.ep, true)
	s.bind(s.ep, o)
	return nil
}

// openStream opens the long-lived stream at from=seq+1 on the stream
// context the attempt prepared. The open itself carries the initial
// size/window grant and implies a cumulative ack of everything before
// from; on a pending session it also carries the query, at the committed
// cursor, and creates the session. Its 200 announces the largest window
// the server applies, the stream's byte budget and the result's columns.
func (s *Session) openStream(ctx context.Context, size int) error {
	t := &s.stream
	win := s.windowTarget()
	u := s.url + "/stream?" + service.Query{Size: size, Window: win, From: s.seq + 1}.Encode()
	var query io.Reader
	if s.way == pending {
		q := s.q
		q.Offset = s.committed
		b, err := json.Marshal(q)
		if err != nil {
			return fmt.Errorf("client: marshal query: %w", err)
		}
		query = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(t.ctx, http.MethodPost, u, query)
	if err != nil {
		return err
	}
	resp, err := s.c.shc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Cancelled through the stream's context on the caller's behalf:
			// the error names the caller's reason.
			err = cerr
		}
		return transportErr(ctx, "open push stream", err)
	}
	if resp.StatusCode != http.StatusOK {
		err := httpFailure("open push stream", resp)
		resp.Body.Close()
		switch code := resp.StatusCode; {
		case s.way == pending && (code == http.StatusNotFound || code == http.StatusMethodNotAllowed || code == http.StatusNotImplemented):
			return fmt.Errorf("%w: %v", errNoStream, err)
		case code == http.StatusNotFound:
			return markTransient(fmt.Errorf("%w: %v", errSessionLost, err))
		case retryable(code):
			return markTransientRetryAfter(err, parseRetryAfter(resp.Header))
		}
		return err
	}
	t.body = resp.Body
	if s.way == pending {
		// The open created the session, on an endpoint that streams it.
		s.bind(s.ep, opened{id: s.id, url: s.url, streamed: true})
	}
	// A server that sends no columns predates the header: an error here,
	// and none known.
	_ = json.Unmarshal([]byte(resp.Header.Get(service.HeaderSessionColumns)), &s.columns)
	// A server that announces no cap predates the header: assume the
	// default one.
	t.cap, t.budget = announced(resp, service.HeaderPushWindow, service.DefaultPushMaxWindow), announced(resp, service.HeaderPushWindowBytes, 0)
	t.granted, t.unacked = service.Query{Acked: s.seq, Window: min(win, t.cap), Size: size}, 0
	return nil
}

// announced reads a positive number the server announced in header, or
// def when it announced none.
func announced(resp *http.Response, header string, def int) int {
	if n, err := strconv.Atoi(resp.Header.Get(header)); err == nil && n > 0 {
		return n
	}
	return def
}

// maxAckBatch bounds the frames left pending ack however large the
// window: half of a window of hundreds would leave a query of a few
// dozen blocks unacknowledged until its session is deleted, and every
// ack the producer holds half a window stale.
const maxAckBatch = 8

// queueGrant posts a credit update when it is due: the block size or
// window target changed, half the window — at most maxAckBatch frames —
// is pending ack, or the frames pending ack weigh half the byte budget.
// The target never exceeds the server's cap and the producer waits only
// at the whole budget, so either threshold is reached before the server
// stops: a threshold above what it grants would never be.
// The post itself happens on the grant loop goroutine, off the
// frame-read path; coalescing there means a slow control channel
// degrades to fewer, fresher grants rather than a backlog.
func (s *Session) queueGrant(size int) {
	t, win := &s.stream, s.windowTarget()
	if last := t.granted; size == last.Size && win == last.Window && s.seq-last.Acked < uint64(max(min(win/2, maxAckBatch), 1)) &&
		(t.budget == 0 || t.unacked < t.budget/2) {
		return
	}
	t.granted, t.unacked = service.Query{Acked: s.seq, Window: win, Size: size}, 0
	t.g.post(s.c, t.ctx, s.url, t.granted)
}

// finish drains the chunked EOF after the done frame and closes the
// body, so the connection goes back to the keep-alive pool — the same
// drain-to-EOF discipline the pull path applies to every response.
// Cancelling before EOF would kill the connection instead, and
// cancelling at all would kill that of a last grant still in flight: the
// stream's context is left to Close, which waits for the grant first.
func (t *stream) finish() {
	if t.body == nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(t.body, drainLimit))
	t.body.Close()
	t.body = nil
}

// teardown abandons the stream mid-body: cancel first so the blocked
// read unsticks, then close. The connection is lost by design — there
// are unread frames on it — and so is a grant in flight for the stream:
// the reconnect's from carries its ack, and the grant loop is free for
// the new stream's first grant at once, wherever that stream is.
func (t *stream) teardown() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
	if t.body != nil {
		t.body.Close()
		t.body = nil
	}
}

// reopenSession replaces a lost server-side session with a fresh name on
// the same endpoint, locally: the next attempt's open (from=1, the query
// at the committed tuple cursor) creates it.
func (s *Session) reopenSession() bool {
	o, err := s.c.name(s.ep)
	if err != nil {
		return false
	}
	s.rebind(s.ep, o, "push session re-opened on ")
	return true
}

// grantLoop is the credit side channel: one goroutine posting the
// latest grant snapshot, started lazily on the first post. Posts
// coalesce — if grants queue up faster than they send, only the newest
// survives, which is always safe because acks are cumulative and
// size/window grants are last-writer-wins on the server too.
type grantLoop struct {
	mu   sync.Mutex
	cond sync.Cond // on mu, from the first post

	// The newest grant: the stream it acks, that stream's session URL and
	// the ack itself.
	stream context.Context
	url    string
	q      service.Query

	dirty, closed bool
	// exited is non-nil once the loop has started and is closed when it
	// returns; stop waits on it.
	exited chan struct{}
}

// post queues the newest grant snapshot for c to send.
func (g *grantLoop) post(c *Client, stream context.Context, url string, q service.Query) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.stream, g.url, g.q = stream, url, q
	g.dirty = true
	if g.exited == nil {
		g.cond.L = &g.mu
		g.exited = make(chan struct{})
		go g.run(c)
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

func (g *grantLoop) run(c *Client) {
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
		stream, url, q := g.stream, g.url, g.q
		g.dirty = false
		g.mu.Unlock()
		// Best-effort: a lost grant only stalls the producer until the read
		// watchdog reconnects, and the reconnect's from carries the ack the
		// grant would have. A grant lives no longer than the stream it acks.
		if c.bestEffort(stream, 10*time.Second, http.MethodPost, url+"/credit?"+q.Encode()) {
			c.metrics.pushGrants.Inc()
		}
	}
}
