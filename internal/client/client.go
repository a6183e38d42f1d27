// Package client is the consumer side of the block-pull protocol: it opens
// query sessions against a service.Server and executes Algorithm 1 of the
// paper — request a block, time it, let the controller pick the next
// block's size — entirely at the client, with no server cooperation beyond
// the plain pull interface ("minimally intrusive", Section I).
//
// The client can be given several replica endpoints (NewMulti). Each gets
// a passive-health circuit breaker; block transfers carry an adaptive
// deadline derived from recent RTTs; and when an endpoint's breaker opens
// mid-query, or a block outlives its deadline there, the session fails
// over, resuming from the committed tuple cursor. All of it leans on the
// seq/replay idempotence of the protocol — a repeated pull can neither
// skip nor repeat tuples.
//
// This file is the client half of the session protocol (DESIGN.md §8):
// one cursor with one writer (commit), one place a session moves
// (rebind), one writer of how its blocks arrive (bind), one block step
// (Session.Next) under both framings and one block reader (readBlock).
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// Metric selects the feedback the controller observes, mirroring
// sim.Metric for live runs.
type Metric int

const (
	// MetricPerTuple feeds block time divided by block size (default).
	MetricPerTuple Metric = iota
	// MetricPerBlock feeds the raw block time.
	MetricPerBlock
)

// Client talks to one logical block-pull service, possibly replicated
// across several endpoints.
type Client struct {
	urls     []string
	pool     *resilience.Pool
	deadline *resilience.DeadlineTracker
	rcfg     ResilienceConfig
	hc       *http.Client
	// shc is hc without its overall Timeout: the caller's client in every
	// other respect, the same transport and so the same keep-alive pool.
	// Everything that carries a deadline of its own goes through it — a
	// push stream, which legitimately lives as long as the query does, and
	// every block pull and best-effort request, whose context already
	// expires (bounded by hc.Timeout, see bound): net/http honours a
	// Timeout with a goroutine, a timer and 18 allocations per request.
	shc     *http.Client
	codec   wire.Codec
	retry   RetryPolicy
	push    PushConfig
	metrics *clientMetrics
	events  EventSink
	// pullOnly holds the endpoints (*resilience.Endpoint) that answered a
	// creating stream open "no such route": a tier without push (a gateway,
	// `wsblockd -push=false`). Sessions there are opened by POST /sessions
	// and pulled, without asking again.
	pullOnly sync.Map
	// bg counts the cleanup running behind the caller (background); Wait
	// joins it.
	bg sync.WaitGroup
}

// New builds a client for the service at baseURL using codec to decode
// blocks (it must match the server's). A nil http.Client uses a default
// with a 5-minute timeout.
func New(baseURL string, codec wire.Codec, hc *http.Client) (*Client, error) {
	return NewMulti([]string{baseURL}, codec, hc)
}

// NewMulti builds a client over several replica endpoints serving the
// same deterministic data. The first URL is the initial primary; the rest
// are failover targets. A single URL behaves exactly like New.
func NewMulti(urls []string, codec wire.Codec, hc *http.Client) (*Client, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("client: need at least one endpoint URL")
	}
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("client: bad base URL: %w", err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("client: base URL %q must be absolute", raw)
		}
	}
	if codec == nil {
		codec = wire.XML{}
	}
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	shc := *hc
	shc.Timeout = 0
	c := &Client{
		urls:  append([]string(nil), urls...),
		hc:    hc,
		shc:   &shc,
		codec: codec,
	}
	// A private registry keeps recording unconditional; SetMetrics
	// rebinds the series to a shared registry when one exists.
	c.metrics = newClientMetrics(metrics.NewRegistry(), c)
	if err := c.rebuildPool(); err != nil {
		return nil, err
	}
	return c, nil
}

// Query names the server-side plan to open: the create body every tier
// parses, declared once by the service. The vector runner sets its
// StreamGroup; a failed-over session resumes by its Offset.
type Query = service.Create

// Session is an open result cursor. Not safe for concurrent use.
type Session struct {
	c  *Client
	q  Query
	ep *resilience.Endpoint
	id string
	// url is the server-side session's own URL on ep, built once per
	// (endpoint, id); every request of the session appends to it.
	url     string
	columns []string
	done    bool
	// way is how the session's blocks arrive — pulled, streamed, or a name
	// only its own stream open may create; bind is its one writer.
	way way
	// seq numbers the blocks committed so far on the *current* server-side
	// session; the next block is seq+1, and a retry re-requests the same
	// number so the server can replay a block whose response was lost. A
	// session move opens a fresh server session and resets the counter.
	seq uint64
	// committed counts tuples already delivered to the caller (plus the
	// query's own Offset) — the resume cursor of a session move.
	committed int
	failovers int
	// hold promises, on every pull, that the next asks for the same size
	// (service.Query.Hold): run.transfer sets it when its controller holds
	// its size (core.HoldsSize). A caller of Next that picks sizes itself
	// leaves it false.
	hold bool
	// transparent is true when the endpoint announced transparent
	// failover capability (a wsgate tier): backend deaths are handled
	// behind the session's back, so the client suppresses its own
	// endpoint failover and instead surfaces the gateway's cumulative
	// failover count — reported on every block — as disturbances, each
	// exactly once.
	transparent bool
	// gwFailovers is the last gateway failover count acknowledged, so
	// only the delta is surfaced.
	gwFailovers int
	// scratch is the decode scratch backing the most recently committed
	// block's rows. It is recycled into scratchPool when the next block is
	// committed — the moment the previous block's rows become invalid.
	scratch *wire.Scratch
	// hdr is the frame header of the /next block being read, and capped
	// its payload, stopping at the frame's end. They live here so that a
	// block costs no buffer or reader of its own.
	hdr    [wire.FrameHeaderLen]byte
	capped io.LimitedReader
	// stream is the push framing's connection and credit state.
	stream stream

	// OnDisturbance, when set, is invoked after the session moved (a
	// failover, a re-open) or a gateway failed it over, with a
	// human-readable reason — the hook the transfer engine uses to tell the
	// controller conditions just changed under it.
	OnDisturbance func(reason string)
}

// OpenSession creates a server-side session for the query, trying the
// preferred endpoint first and falling back to the other replicas. Under
// push its blocks stream, where the endpoint streams (bind).
func (c *Client) OpenSession(ctx context.Context, q Query) (*Session, error) {
	first := c.pool.Pick()
	order := []*resilience.Endpoint{first}
	for _, ep := range c.pool.Endpoints() {
		if ep != first {
			order = append(order, ep)
		}
	}
	var lastErr error
	for _, ep := range order {
		o, err := c.openSessionOn(ctx, ep, q, q.Offset)
		if err == nil {
			ep.Success()
			c.pool.Promote(ep)
			s := &Session{c: c, q: q, committed: q.Offset}
			s.bind(ep, o)
			return s, nil
		}
		if isTransient(err) {
			ep.Failure()
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// opened is a freshly created server-side session — or, pending, only
// the name of one (name). transparent reports whether the endpoint
// announced gateway-side transparent failover; streamed, that a stream
// open created the session, so its endpoint streams.
type opened struct {
	id, url                        string
	columns                        []string
	transparent, pending, streamed bool
}

// session hands a run its session. Under push that is one the client
// names and no request yet: the stream open that fetches the first block
// creates it, so a push query pays one round trip before its first block,
// not two. Otherwise, and on an endpoint known not to stream, it is
// OpenSession.
func (c *Client) session(ctx context.Context, q Query) (*Session, error) {
	ep := c.pool.Pick()
	if !c.push.Enabled || c.pullsOnly(ep) {
		return c.OpenSession(ctx, q)
	}
	o, err := c.name(ep)
	if err != nil {
		return nil, err
	}
	s := &Session{c: c, q: q, committed: q.Offset}
	s.bind(ep, o)
	return s, nil
}

// name picks a session name for ep: "c" and 128 random bits in hex, a
// namespace no server-assigned id enters (service.handleStream has the
// rule). Because the name is the client's, the creating open is
// idempotent, and the session's id and URL are valid before any I/O.
func (c *Client) name(ep *resilience.Endpoint) (opened, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return opened{}, fmt.Errorf("client: name session: %w", err)
	}
	id := "c" + hex.EncodeToString(b[:])
	u, err := joinURL(ep.URL(), "sessions", id)
	return opened{id: id, url: u, pending: true}, err
}

func (c *Client) pullsOnly(ep *resilience.Endpoint) bool {
	_, ok := c.pullOnly.Load(ep)
	return ok
}

// openSessionOn creates a server-side session on one specific endpoint,
// resuming at the given tuple offset.
func (c *Client) openSessionOn(ctx context.Context, ep *resilience.Endpoint, q Query, offset int) (o opened, err error) {
	q.Offset = offset
	body, err := json.Marshal(q)
	if err != nil {
		return o, fmt.Errorf("client: marshal query: %w", err)
	}
	u, err := joinURL(ep.URL(), "sessions")
	if err != nil {
		return o, err
	}
	resp, err := c.doManagement(ctx, http.MethodPost, u, body, "application/json", http.StatusCreated)
	if err != nil {
		return o, fmt.Errorf("client: open session: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return o, httpFailure("open session", resp)
	}
	o.transparent, _ = strconv.ParseBool(resp.Header.Get(service.HeaderGatewayTransparentFailover))
	var cr service.Created
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return o, fmt.Errorf("client: decode session response: %w", err)
	}
	if cr.Session == "" {
		return o, fmt.Errorf("client: server returned empty session id")
	}
	o.id, o.columns = cr.Session, cr.Columns
	o.url, err = joinURL(u, cr.Session)
	return o, err
}

// ID returns the session identifier — server-assigned (a gateway id when
// the session is transparent) or, when a stream open created the session,
// the name the client picked — useful for correlating with server-side
// session listings.
func (s *Session) ID() string { return s.id }

// Columns returns the projected column names of the session's result
// (nil until the first block, on a session its stream open creates).
func (s *Session) Columns() []string { return s.columns }

// Done reports whether the result set has been exhausted.
func (s *Session) Done() bool { return s.done }

// Endpoint returns the base URL of the replica currently serving the
// session.
func (s *Session) Endpoint() string { return s.ep.URL() }

// Failovers returns how many times the session moved to another replica.
func (s *Session) Failovers() int { return s.failovers }

// Transparent reports whether the endpoint is a gateway that fails
// sessions over to other backends transparently.
func (s *Session) Transparent() bool { return s.transparent }

// GatewayFailovers returns the cumulative transparent failovers the
// gateway reports having performed for this session — disjoint from
// Failovers(), which counts only failovers the client performed itself.
func (s *Session) GatewayFailovers() int { return s.gwFailovers }

// Block is one pulled block with its client-side timing.
//
// Its rows are a view on a per-session decode scratch that is reused on
// the next pull: Rows builds them on its first call (a binary block is
// only checked and indexed until then), and they are valid until the
// session's next Next call — Rows or Clone after it panics. The string
// cells themselves live in an immutable per-block arena, so copying the
// Values (e.g. minidb.Row.Clone, or Block.Clone for the whole block) is
// all a handler that retains rows needs to do — no deep string copy. A
// retained cell keeps its block's arena alive: under the binary codec
// that is the block's whole payload.
type Block struct {
	// Tuples is the block's row count, known without building a row.
	Tuples int
	// Schema describes the rows.
	Schema minidb.Schema
	// Elapsed is the client-observed wall time of the request (t2-t1 of
	// Algorithm 1).
	Elapsed time.Duration
	// Done is true when this was the final block.
	Done bool
	// InjectedMS is the simulated delay the server reports it applied
	// (before time scaling), for experiment bookkeeping.
	InjectedMS float64
	// Attempts is how many pulls this block took (1 = no retry).
	Attempts int
	// Replayed is true when the server served the block from its replay
	// buffer, i.e. an earlier attempt's response was produced but lost.
	Replayed bool
	// Bytes is the encoded payload size of the successful attempt.
	Bytes int64
	// Endpoint is the base URL of the replica that served the block.
	Endpoint string
	// Failovers counts session failovers that happened while pulling this
	// block.
	Failovers int
	// GatewayFailovers is the cumulative transparent-failover count the
	// gateway reported with this block (0 when pulling directly from a
	// backend).
	GatewayFailovers int

	// view holds the rows, built or not; scratch is the decode scratch
	// behind it. The session retires and recycles the scratch when the
	// next block is committed — a scratch is never pooled while its rows
	// may still be read.
	view    wire.View
	scratch *wire.Scratch
}

// Rows returns the block's tuples, building them on the first call.
// Valid until the next pull on the same session; use Clone to retain
// them longer.
func (b *Block) Rows() []minidb.Row { return b.view.Rows() }

// Clone returns a copy of the block whose rows are built and independent
// of the session's reusable decode scratch, so they stay valid across
// later pulls. Values are copied shallowly; string cells share the
// immutable per-block arena, which is never reused, so no byte copying is
// needed — and the clone keeps that arena (binary: the whole payload)
// alive. Like Rows, it must be called before the session's next pull.
func (b *Block) Clone() *Block {
	src := b.Rows()
	nb := *b
	nb.scratch = nil
	nb.Schema = append(minidb.Schema(nil), b.Schema...)
	vals := make([]minidb.Value, 0, len(src)*len(b.Schema))
	rows := make([]minidb.Row, len(src))
	for i, r := range src {
		start := len(vals)
		vals = append(vals, r...)
		rows[i] = minidb.Row(vals[start:len(vals):len(vals)])
	}
	nb.view = wire.RowsView(nb.Schema, rows)
	return &nb
}

// scratchPool recycles decode scratches across blocks (and sessions). A
// scratch leaves it in readBlock and comes back either there, when the
// decode failed and its rows never escaped, or in commit, when the block
// it backed has been superseded.
var scratchPool = sync.Pool{New: func() any { return new(wire.Scratch) }}

// Next delivers one block of up to size tuples and times it, pulled or
// off the stream as the session's way says — per attempt, since a move
// may change it. Transient failures — severed connections or streams,
// truncated bodies, frame gaps, deadline expiries, 5xx responses — are
// retried under the client's RetryPolicy, re-requesting the same
// sequence number (a stream reconnects at from=seq+1) so the server can
// replay without skipping or duplicating tuples. Two ways around a
// failure need no waiting: reconnect, the stream's own, then failAway —
// when the current endpoint's breaker refuses traffic, or the block
// outlived its adaptive deadline there, and another replica exists, the
// session fails over and resumes from the committed cursor. Elapsed
// covers the successful attempt only, so the controller's timing signal
// is not polluted by failed tries.
func (s *Session) Next(ctx context.Context, size int) (*Block, error) {
	if s.done {
		return nil, fmt.Errorf("client: session %s already exhausted", s.id)
	}
	if size < 1 {
		return nil, fmt.Errorf("client: block size %d must be positive", size)
	}
	kind := "push"
	if s.way == pulling {
		kind = "pull"
	}
	var (
		blk             *Block
		failovers, lost int
	)
	attempts, err := s.c.retryBlock(ctx, kind, &s.seq, func(attempt int) (err error) {
		// The breaker only gates a transfer when an alternative endpoint
		// exists: on a single-endpoint pool refusing traffic would just burn
		// the retry budget without anywhere to send it.
		if s.c.pool.Len() > 1 && !s.ep.Allow() {
			return markTransient(fmt.Errorf("client: endpoint %s: circuit breaker open", s.ep.URL()))
		}
		if s.way == pulling {
			blk, err = s.pullAttempt(ctx, size, attempt)
		} else {
			blk, err = s.streamAttempt(ctx, size, attempt)
		}
		return err
	}, func(err error) bool {
		return s.reconnect(err, &lost) || s.failAway(ctx, err, &failovers)
	})
	if err != nil {
		return nil, err
	}
	s.commit(blk, attempts, failovers)
	if s.way != pulling {
		if blk.Done {
			s.stream.finish()
		} else {
			s.queueGrant(size)
		}
		s.c.metrics.pushFrames.Inc()
	}
	return blk, nil
}

// commit makes blk the session's newest block — the one writer of the
// cursor. The previous block's rows are now invalid per the Block
// contract, so its scratch is retired and goes back to the pool.
func (s *Session) commit(blk *Block, attempts, failovers int) {
	blk.Attempts, blk.Failovers, blk.Endpoint = attempts, failovers, s.ep.URL()
	if s.scratch != nil {
		s.scratch.Retire()
		scratchPool.Put(s.scratch)
	}
	s.scratch = blk.scratch
	s.seq++
	s.done = blk.Done
	s.committed += blk.Tuples
	s.ep.Success()
	s.c.deadline.Observe(blk.Elapsed, blk.Tuples)
	// A transparent gateway reports its cumulative failover count on
	// every block; surface each gateway failover as a disturbance
	// EXACTLY once (on the delta) and never as a client failover —
	// the session never moved from the client's point of view.
	if s.transparent && blk.GatewayFailovers > s.gwFailovers {
		s.gwFailovers = blk.GatewayFailovers
		if s.OnDisturbance != nil {
			s.OnDisturbance(fmt.Sprintf("transparent gateway failover (%d total) behind %s", s.gwFailovers, s.ep.URL()))
		}
	}
	s.c.metrics.recordBlock(blk)
}

// errDeadline marks an attempt that died of its adaptive deadline, pull
// or push: the replica is reachable but this block is overdue on it.
var errDeadline = errors.New("adaptive block deadline expired")

// failAway is the reroute step of both framings: the current
// endpoint's breaker refuses traffic, or the attempt outlived its
// adaptive deadline there (a stalled-but-alive replica is left after one
// deadline, not after a breaker's worth of doubled ones), and another
// healthy endpoint exists — so re-open the session there and retry at
// once. Bounded by the pool size per block, so a pathological pool
// cannot extend the retry budget indefinitely; with nowhere to go the
// block is retried in place under a doubled deadline. A transparent
// gateway owns failover for its sessions (the backend death is handled
// behind this endpoint), so the client never performs its own — that
// would re-open elsewhere and count the same disturbance twice.
func (s *Session) failAway(ctx context.Context, cause error, failovers *int) bool {
	c := s.c
	if s.transparent || c.pool.Len() < 2 || *failovers >= c.pool.Len() {
		return false
	}
	if !errors.Is(cause, errDeadline) && s.ep.Allow() {
		return false
	}
	other, ok := c.pool.Other(s.ep)
	if !ok {
		return false
	}
	o, err := c.openSessionOn(ctx, other, s.q, s.committed)
	if err != nil {
		if isTransient(err) {
			other.Failure()
		}
		return false
	}
	other.Success()
	s.rebind(other, o, "session failover to ")
	*failovers++
	return true
}

// rebind is the one place a session moves: onto the fresh server-side
// session o on ep, whose blocks number from 1. The session left behind is
// deleted in the background — if the server had already lost it, that
// costs one 404 nobody waits for. Leaving an endpoint is a failover: the
// new one becomes the pool's preference.
func (s *Session) rebind(ep *resilience.Endpoint, o opened, reason string) {
	old, oldURL := s.ep, s.url
	s.bind(ep, o)
	if ep != old {
		s.c.pool.Promote(ep)
		s.c.metrics.failovers.Inc()
		s.failovers++
	}
	if s.url != oldURL {
		s.c.background(5*time.Second, func(ctx context.Context) {
			s.c.bestEffort(ctx, 5*time.Second, http.MethodDelete, oldURL)
		})
	}
	if s.OnDisturbance != nil {
		s.OnDisturbance(reason + ep.URL())
	}
}

// bind points the session at o on ep, whose blocks number from 1 (and
// whose columns, if o is only a name, its first stream open will say),
// and decides its way — the one place that does. A name is pending even
// on an endpoint in pullOnly: it is never pulled before its own open has
// fallen back.
func (s *Session) bind(ep *resilience.Endpoint, o opened) {
	s.ep, s.id, s.url, s.columns, s.transparent = ep, o.id, o.url, o.columns, o.transparent
	s.seq = 0
	switch c := s.c; {
	case !c.push.Enabled || o.transparent:
		s.way = pulling
	case o.pending:
		s.way = pending
	case o.streamed || !c.pullsOnly(ep):
		s.way = streaming
	default:
		s.way = pulling
	}
}

// background runs cleanup the caller does not wait for — the close of a
// finished session, the DELETE of the half a session move left behind —
// under a timeout of its own, and counts it for Wait.
func (c *Client) background(timeout time.Duration, f func(ctx context.Context)) {
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), c.bound(timeout))
		defer cancel()
		f(ctx)
	}()
}

// Wait blocks until the cleanup the client's finished runs left running
// behind them has ended — above all their sessions' DELETEs, which a run
// does not wait for — or ctx is done. A process about to exit calls it
// once, after its last run has returned, so that no session is left for
// the server to expire (by default five minutes of an admission slot);
// so does a caller about to read the server's own session count. It says
// nothing of a run still in progress. (A Wait that gives up with ctx
// leaves its helper goroutine to the cleanup's own timeouts, 30 s at most.)
func (c *Client) Wait(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		c.bg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pullAttempt makes one attempt at block seq+1 over /next, under the
// adaptive deadline — a straight line on the caller's goroutine.
func (s *Session) pullAttempt(ctx context.Context, size, attempt int) (*Block, error) {
	u := s.url + "/next?" + service.Query{Size: size, Seq: s.seq + 1, Hold: s.hold}.Encode()
	cctx, cancel := context.WithTimeout(ctx, s.c.attemptDeadline(size, attempt))
	defer cancel()
	blk, err := s.pullOnce(cctx, ctx, u)
	if isTransient(err) {
		s.ep.Failure()
	}
	return blk, err
}

// pullOnce performs one pull attempt over the wire. cctx bounds the
// attempt (the adaptive per-block deadline); parent is the caller's
// context. An expiry of cctx alone means the pull stalled — a transient,
// retryable condition — while a dead parent means the caller gave up.
func (s *Session) pullOnce(cctx, parent context.Context, u string) (*Block, error) {
	c := s.c
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	resp, err := c.shc.Do(req)
	if err != nil {
		return nil, c.classifyPullErr(cctx, parent, fmt.Errorf("client: pull block: %w", err))
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		err := httpFailure("pull block", resp)
		if retryable(resp.StatusCode) {
			err = markTransientRetryAfter(err, parseRetryAfter(resp.Header))
		}
		return nil, err
	}
	blk, err := s.readBlock(resp.Body, resp.ContentLength, t1)
	if err != nil {
		// Usually a body truncated by a dying connection or a deadline
		// expiry mid-body: retry and let the server replay the block.
		return nil, c.classifyPullErr(cctx, parent, fmt.Errorf("client: pull block: %w", err))
	}
	return blk, nil
}

// readBlock reads one /next body, one data frame of length bytes (-1:
// not declared), into a view on a pooled scratch (see newBlock): a body
// that is not exactly one data frame — short, a header whose payload
// length disagrees with the body's, trailing bytes — is an error. t1 is
// when the wait for the block began.
func (s *Session) readBlock(body io.Reader, length int64, t1 time.Time) (*Block, error) {
	f, n, err := wire.ReadFrameHeader(body, &s.hdr, wire.MaxFramePayload)
	switch {
	case err != nil:
		return nil, err
	case f.Type != wire.FrameData:
		return nil, fmt.Errorf("a /next body framed as type 0x%02x, not a data frame", f.Type)
	case length >= 0 && length != int64(wire.FrameHeaderLen+n):
		return nil, fmt.Errorf("frame of %d payload bytes in a %d-byte body", n, length)
	}
	s.capped = io.LimitedReader{R: body, N: int64(n)}
	sc := scratchPool.Get().(*wire.Scratch)
	view, err := wire.ViewBlock(s.c.codec, &s.capped, sc)
	if err == nil {
		// Every codec reads its payload to the end; the frame ends there too.
		if s.capped.N != 0 {
			err = io.ErrUnexpectedEOF
		} else if m, _ := io.ReadFull(body, s.hdr[:1]); m != 0 {
			err = errors.New("trailing bytes after the frame")
		}
	}
	return s.newBlock(sc, view, err, int64(n), time.Since(t1), service.FrameMeta(f))
}

// newBlock makes the block of a view read off either framing — a /next
// body's frame or one of a /stream's — onto the pooled scratch sc: it
// checks the view against the tuple count its frame announced and stamps
// it with what the frame said about it. A binary block is checked and
// indexed by then, its rows built only if someone reads them. A failed
// block's rows never escape, so its scratch is pooled right away.
func (s *Session) newBlock(sc *wire.Scratch, view wire.View, err error, n int64, elapsed time.Duration, meta service.BlockMeta) (*Block, error) {
	switch {
	case err != nil:
		err = fmt.Errorf("decode block: %w", err)
	case meta.Tuples != view.Len():
		err = fmt.Errorf("server announced %d tuples but block decoded %d", meta.Tuples, view.Len())
	}
	if err != nil {
		scratchPool.Put(sc)
		return nil, err
	}
	blk := &Block{Tuples: view.Len(), Schema: view.Schema(), Elapsed: elapsed, Bytes: n, view: view, scratch: sc}
	blk.Done, blk.InjectedMS, blk.Replayed, blk.GatewayFailovers = meta.Done, meta.DelayMS, meta.Replayed, meta.Failovers
	return blk, nil
}

// classifyPullErr decides whether a failed pull is worth retrying: the
// caller's cancellation never is; an adaptive-deadline expiry always is
// (it is counted, and marked for failAway); anything else — refused,
// reset, severed mid-body — is transient.
func (c *Client) classifyPullErr(cctx, parent context.Context, wrapped error) error {
	if parent.Err() != nil {
		return wrapped
	}
	if cctx.Err() != nil {
		wrapped = c.deadlineExpired(wrapped)
	}
	return markTransient(wrapped)
}

// deadlineExpired counts an attempt that died of its deadline — the
// adaptive estimate or, when that is shorter, the caller's own
// http.Client.Timeout (attemptDeadline folds the two into one) — and
// marks its error so: either way the replica took longer than the attempt
// was given, which is what moves a session to another one (failAway).
func (c *Client) deadlineExpired(err error) error {
	c.metrics.deadlineTimeouts.Inc()
	return fmt.Errorf("%w (%w)", err, errDeadline)
}

// Close tears down the session's stream, if it has one, waits for its
// grant loop and deletes the server-side session. Closing an
// already-expired session is not an error.
func (s *Session) Close(ctx context.Context) error {
	s.stream.g.stop()
	s.stream.teardown()
	resp, err := s.c.doManagement(ctx, http.MethodDelete, s.url, nil, "",
		http.StatusNoContent, http.StatusNotFound)
	if err != nil {
		return fmt.Errorf("client: close session: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return httpFailure("close session", resp)
	}
	return nil
}

// SetLoad adjusts the server's simulated load (experiment orchestration).
// With several endpoints it targets the current primary.
func (c *Client) SetLoad(ctx context.Context, jobs, queries int, memory float64) error {
	body, err := json.Marshal(map[string]any{"Jobs": jobs, "Queries": queries, "Memory": memory})
	if err != nil {
		return err
	}
	u, err := c.endpoint("load")
	if err != nil {
		return err
	}
	resp, err := c.doManagement(ctx, http.MethodPut, u, body, "application/json", http.StatusNoContent)
	if err != nil {
		return fmt.Errorf("client: set load: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return httpFailure("set load", resp)
	}
	return nil
}

// RunResult summarizes one adaptive transfer over the live service.
type RunResult struct {
	// Tuples and Blocks count what was transferred.
	Tuples int
	Blocks int
	// Elapsed is the total wall time spent transferring blocks.
	Elapsed time.Duration
	// SimulatedMS is the sum of server-injected model delays, the
	// scale-free response time used when comparing against profiles.
	SimulatedMS float64
	// Sizes is the commanded block size per request.
	Sizes []int
	// Retries counts extra attempts beyond the first, and Replays counts
	// blocks the server recognized as a repeat (served from its replay
	// buffer) — both 0 on a fault-free run.
	Retries int
	Replays int
	// Failovers counts session moves to another replica — 0 on a healthy
	// or single-endpoint run.
	Failovers int
}

// Run executes Algorithm 1: it pulls the whole result set, feeding each
// block's timing to the controller. The controller observes wall time by
// default; when the server injects simulated delays with a small
// SleepScale, prefer observing the scale-free injected delay by setting
// useInjected. Session moves and gateway failovers are surfaced to the
// controller as disturbances (core.NotifyDisturbance), so adaptive
// controllers re-enter their search instead of trusting a baseline
// measured against a replica that no longer serves the session. Run
// returns with the whole result; the session's close runs behind it (Wait).
func (c *Client) Run(ctx context.Context, q Query, ctl core.Controller, metric Metric, useInjected bool) (*RunResult, error) {
	sess, err := c.session(ctx, q)
	if err != nil {
		return nil, err
	}
	r := run{c: c, ctl: ctl, metric: metric, useInjected: useInjected, res: &RunResult{}}
	_, err = r.transfer(ctx, sess, 0, nil)
	return r.res, err
}

// endpoint builds an absolute URL on the current primary endpoint from
// path segments (management operations that are not session-bound).
func (c *Client) endpoint(segments ...string) (string, error) {
	return joinURL(c.pool.Primary().URL(), segments...)
}

// joinURL builds an absolute URL from a base and path segments,
// path-escaping each one (session IDs come from the server and must not
// be interpolated raw) and surfacing join errors instead of discarding
// them.
func joinURL(base string, segments ...string) (string, error) {
	esc := make([]string, len(segments))
	for i, seg := range segments {
		if seg == "" {
			return "", fmt.Errorf("client: empty path segment in endpoint %v", segments)
		}
		esc[i] = url.PathEscape(seg)
	}
	joined, err := url.JoinPath(base, esc...)
	if err != nil {
		return "", fmt.Errorf("client: build endpoint %v: %w", segments, err)
	}
	return joined, nil
}

// drainLimit bounds how much of a leftover body the client reads to
// reach EOF. net/http only returns a keep-alive connection to its pool
// when the body was read to EOF before Close; a body abandoned short of
// EOF forces a fresh dial for the next pull, which on the hot path turns
// every block into a connection setup.
const drainLimit = 4 << 20

func httpFailure(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	// Drain the rest of the error body so the keep-alive connection
	// stays reusable (callers Close the body afterwards).
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	return fmt.Errorf("client: %s: server returned %s: %s", op, resp.Status, bytes.TrimSpace(msg))
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	resp.Body.Close()
}
