// Package gateway is the replicated-session front tier (cmd/wsgate): it
// terminates client block-pull sessions, places them across N wsblockd
// backends in turn, and makes a backend death mid-transfer invisible to
// the client.
//
// Every session mutation on a backend is shipped to the gateway through
// the internal/replica log-shipping channel (one Puller per backend
// draining GET /replication/feed into a standby Store). The gateway is
// therefore a warm follower for every session it terminates: it knows
// each session's committed cursor, last-acked seq, and holds the last
// committed block's bytes. When a primary dies (circuit breaker opened
// by proxy or replication-pull failures, or an in-flight pull error) the
// session's next pull is served by promoting the next healthy backend:
//
//   - a RETRY of the last seq is served verbatim from the standby copy
//     (byte-identical replay, zero duplicate or lost tuples), falling
//     back to re-pulling the same rows at the committed cursor when the
//     standby copy lagged behind the crash;
//   - a FRESH pull re-opens the query on the successor at the committed
//     cursor and translates sequence numbers (client seq = seqBase +
//     backend seq), so the client's cursor never resets.
//
// The client sees the same session id, an uninterrupted seq stream, and
// a failover count in every block's frame that lets it surface the
// disturbance to its controller exactly once. Exactly-once delivery holds
// across process death, not just connection death.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/metrics"
	"wsopt/internal/replica"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// Config parameterizes a Gateway.
type Config struct {
	// Backends are the wsblockd base URLs (required, at least one,
	// distinct). New sessions are placed on them in turn, in this order,
	// and a session whose backend dies moves to the next healthy one.
	// Each must serve /replication/feed (wsblockd -replicate) for transparent
	// failover; without it the gateway still routes and fails over fresh
	// pulls, but same-seq retries after a death fall back to re-pulling.
	Backends []string
	// Breaker parameterizes each backend's circuit breaker.
	Breaker resilience.BreakerConfig
	// PullInterval is the replication poll period per backend (default
	// 25ms).
	PullInterval time.Duration
	// MaxSessions seeds the edge admission ceiling (0 = unlimited); at
	// runtime the fleet-wide SLO regulator owns it via SetSessionLimit.
	MaxSessions int
	// SessionTTL expires gateway sessions idle longer than this (default
	// 5 minutes, mirroring the backend janitor). Expiry releases the
	// admission slot and best-effort deletes the backend session, so an
	// abandoned client cannot pin the SLO-regulated ceiling while the
	// backend janitors its half away (whose later 404 would read as a
	// death and trigger a spurious failover).
	SessionTTL time.Duration
	// RetryAfter is the base backoff hint for shed creates (default 1s),
	// scaled by the live admission pressure.
	RetryAfter time.Duration
	// HTTP is the client used for backend requests (default 2m timeout).
	HTTP *http.Client
	// Metrics receives the gateway series; nil uses a private registry.
	Metrics *metrics.Registry
	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
}

// backend is one wsblockd replica as seen from the gateway.
type backend struct {
	url string
	// idx is the backend's number in a block's frame: its place in
	// cfg.Backends, and in Stats().Backends, from 1.
	idx     int
	breaker *resilience.Breaker
	store   *replica.Store
	puller  *replica.Puller
	// sessions counts gateway sessions currently primaried here.
	sessions atomic.Int64
}

// healthScore maps the backend's breaker state to a gauge value.
func (b *backend) healthScore() float64 {
	switch b.breaker.State() {
	case resilience.Closed:
		return 1
	case resilience.HalfOpen:
		return 0.5
	default:
		return 0
	}
}

// Gateway terminates client sessions and proxies them to backends.
type Gateway struct {
	cfg Config
	hc  *http.Client
	// backends in cfg.Backends order: backends[i].idx is i+1.
	backends []*backend
	logger   *log.Logger

	mu       sync.Mutex
	sessions map[string]*gwSession

	nextID atomic.Uint64
	// Admission is the edge's instance of the one admission
	// implementation; the fleet-wide SLO regulator owns its limit and
	// pressure through the promoted regulator.Sink methods.
	*service.Admission

	stats gwStats
	// refs counts the block references this gateway holds
	// (RetainedBlocks).
	refs blockcache.Refs
	// blockServe is the fleet-wide block-serve histogram, registry-owned.
	blockServe *metrics.Histogram
	mux        *http.ServeMux
}

// gwSession is one client-facing session. The client sees a stable id
// and a monotonically increasing seq; underneath, the session may move
// across backends, each move opening a fresh backend-side session whose
// seqs are translated by seqBase (client seq = seqBase + backend seq).
type gwSession struct {
	mu sync.Mutex
	id string
	// query is the client's create body; its Offset is rewritten on every
	// re-open so the backend resumes at the committed cursor.
	query service.Create
	// backend is the current primary; backendID the session id there.
	backend   *backend
	backendID string
	// seqBase translates sequence numbers: client seq = seqBase +
	// backend-side seq. 0 until the first failover.
	seqBase uint64
	// lastSeq is the last client seq served fresh; lastTuples its tuple
	// count; committed the absolute cursor after it (create offset
	// included).
	lastSeq    uint64
	lastTuples int
	committed  int64
	done       bool
	failovers  int
	closed     bool
	// openBody is the create body last sent to the current backend. The
	// standby-replay guard matches it against the replicated Query, so
	// state from an unrelated session — a backend restart reuses session
	// ids — is never replayed into this one.
	openBody []byte
	// lastUsed is the unix-nano timestamp of the last client touch,
	// atomic so the expiry janitor reads it without taking sess.mu.
	lastUsed atomic.Int64
	// standby holds a private copy of the dead primary's replicated state
	// after a standby-replay failover: the replayed block predates the
	// promoted backend session (its translated seq would be 0), so repeat
	// retries are served from this copy again. A private copy, not a
	// store pointer: the store is cleared when its backend restarts, and
	// this session's validated state must survive that. Cleared on the
	// next fresh pull.
	standby *replica.SessionState
	// ahead is the block after lastSeq, read from the backend once the
	// block before was flushed to a client that promised to ask for
	// aheadSize next (readAhead). last is the block lastSeq, kept while a
	// read-ahead is in play: the backend has committed past it and cannot
	// replay it. The session holds a reference to each until a fresh block
	// is committed or the session ends. resync marks the backend's cursor
	// unknown — a promise broken or a read-ahead failed — so the next
	// fresh pull re-opens at committed.
	ahead, last *proxiedBlock
	aheadSize   int
	resync      bool
}

// touch records client activity for the expiry janitor.
func (sess *gwSession) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// end closes the session and releases the blocks it holds, returning its
// backend half for the caller to delete.
func (sess *gwSession) end() (*backend, string) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.closed = true
	for _, blk := range []*proxiedBlock{sess.ahead, sess.last} {
		if blk != nil {
			blk.Release()
		}
	}
	sess.ahead, sess.last = nil, nil
	return sess.backend, sess.backendID
}

// New builds a Gateway over the configured backends.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: need at least one backend URL")
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = 25 * time.Millisecond
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 5 * time.Minute
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Minute}
	}
	g := &Gateway{
		cfg:      cfg,
		hc:       hc,
		sessions: make(map[string]*gwSession),
		logger:   cfg.Logger,

		Admission: service.NewAdmission(cfg.MaxSessions, cfg.RetryAfter),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	for i, raw := range cfg.Backends {
		if u, err := url.Parse(raw); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend URL %q must be absolute", raw)
		}
		if slices.Contains(cfg.Backends[:i], raw) {
			return nil, fmt.Errorf("gateway: backend URL %q given twice", raw)
		}
		b := &backend{url: raw, idx: i + 1, breaker: resilience.NewBreaker(cfg.Breaker), store: replica.NewStore(0)}
		b.puller = &replica.Puller{
			URL:      b.url,
			Store:    b.store,
			Interval: cfg.PullInterval,
			HTTP:     hc,
			// A dead backend surfaces here every poll; feeding the breaker
			// makes replication the gateway's fastest death detector —
			// failure is usually observed between client pulls, not during
			// one. A StatusError means the backend answered (replication
			// may simply be disabled): alive, not a death signal.
			OnError: func(err error) {
				var se *replica.StatusError
				if errors.As(err, &se) {
					return
				}
				b.breaker.Failure()
			},
		}
		g.backends = append(g.backends, b)
	}
	g.registerMetrics(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", g.handleCreate)
	mux.HandleFunc("POST /sessions/{id}/next", g.handleNext)
	// This tier owns failover per pull and proxies no stream: say so, so a
	// push client opens by POST /sessions and pulls, rather than read a
	// mux 404 as a session the tier forgot.
	mux.HandleFunc("POST /sessions/{id}/stream", func(w http.ResponseWriter, _ *http.Request) {
		service.MarkTransparentFailover(w.Header())
		httpError(w, http.StatusNotImplemented, "the gateway does not proxy push streams; open by POST /sessions and pull")
	})
	mux.HandleFunc("DELETE /sessions/{id}", g.handleDelete)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /stats", g.handleStats)
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Start launches the per-backend replication pullers; they stop when ctx
// is cancelled. Idle sessions are expired by whoever runs the gateway
// calling ExpireIdle (cmd/wsgate's daemon chassis runs that janitor).
func (g *Gateway) Start(ctx context.Context) {
	for _, b := range g.backends {
		go b.puller.Run(ctx)
	}
}

// ExpireIdle drops gateway sessions idle longer than the TTL, releasing
// their admission slots and best-effort deleting the backend side; it
// returns how many were dropped.
func (g *Gateway) ExpireIdle(now time.Time) int {
	cut := now.Add(-g.cfg.SessionTTL).UnixNano()
	g.mu.Lock()
	var expired []*gwSession
	for id, sess := range g.sessions {
		if sess.lastUsed.Load() < cut {
			delete(g.sessions, id)
			expired = append(expired, sess)
		}
	}
	g.mu.Unlock()
	for _, sess := range expired {
		b, bid := sess.end()
		b.sessions.Add(-1)
		g.Release()
		g.stats.sessionsExpired.Add(1)
		g.deleteBackendSession(b, bid)
		g.logf("session %s expired idle", sess.id)
	}
	return len(expired)
}

// BlockServeSnapshot freezes the fleet-wide block-serve histogram — the
// measured variable for edge SLO regulation. Every block of every
// backend flows through the gateway, so this is the fleet p95, not one
// replica's.
func (g *Gateway) BlockServeSnapshot() metrics.HistogramSnapshot {
	return g.blockServe.Snapshot()
}

// SessionCount reports live gateway sessions.
func (g *Gateway) SessionCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// RetainedBlocks returns how many references to proxied blocks this
// gateway holds: its sessions' read-ahead and last blocks and the
// blocks being written. It is zero once every session is closed.
func (g *Gateway) RetainedBlocks() int64 { return g.refs.Live() }

// Failovers reports transparent failovers performed so far.
func (g *Gateway) Failovers() int64 { return g.stats.failovers.Load() }

// admit reserves an edge admission slot, shedding with 503 + Retry-After
// (priced by the regulator's pressure) when the fleet-wide ceiling is
// reached.
func (g *Gateway) admit(w http.ResponseWriter) bool {
	limit, ok := g.Admit(w.Header())
	if !ok {
		g.stats.sessionsShed.Add(1)
		httpError(w, http.StatusServiceUnavailable, "gateway session limit reached (%d open)", limit)
	}
	return ok
}

func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !g.admit(w) {
		return
	}
	committed := false
	defer func() {
		if !committed {
			g.Release()
		}
	}()
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read request body: %v", err)
		return
	}
	// The backends' own parse: a body they would refuse is refused here,
	// before any backend sees it.
	query, err := service.ParseCreate(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	n := g.nextID.Add(1)
	id := fmt.Sprintf("g%08x", n)
	var cr service.Created
	var placed *backend
	for _, b := range g.placement(n - 1) {
		resp, status, err := g.openOn(r.Context(), b, body)
		if status != 0 {
			// The backend refused the query itself (404 for an unknown
			// table, 400 for a bad where), as every backend would.
			httpError(w, status, "%v", err)
			return
		}
		if err != nil {
			b.breaker.Failure()
			g.logf("create %s: backend %s: %v", id, b.url, err)
			continue
		}
		b.breaker.Success()
		cr, placed = resp, b
		break
	}
	if placed == nil {
		httpError(w, http.StatusBadGateway, "no backend accepted the session")
		return
	}

	sess := &gwSession{id: id, query: query, backend: placed, backendID: cr.Session, committed: int64(query.Offset), openBody: body}
	sess.touch()
	g.mu.Lock()
	g.sessions[id] = sess
	g.mu.Unlock()
	placed.sessions.Add(1)
	committed = true
	g.stats.sessionsOpened.Add(1)
	g.logf("session %s opened on %s (backend id %s, offset %d)", id, placed.url, cr.Session, query.Offset)

	w.Header().Set("Content-Type", "application/json")
	service.MarkTransparentFailover(w.Header())
	w.WriteHeader(http.StatusCreated)
	cr.Session = id
	if err := json.NewEncoder(w).Encode(cr); err != nil {
		g.logf("session %s: encode response: %v", id, err)
	}
}

// placement is the order in which the n-th new session (from 0) tries
// the backends: each once, cyclically from backend n mod N, those whose
// breakers admit traffic first and then the rest, so that a session is
// placed even when every breaker is open. Sessions never move for load,
// only for death.
func (g *Gateway) placement(n uint64) []*backend {
	k := len(g.backends)
	order := make([]*backend, 0, k)
	var rest []*backend
	for i := range k {
		b := g.backends[(int(n%uint64(k))+i)%k]
		if b.breaker.Allow() {
			order = append(order, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(order, rest...)
}

// successor is where a session whose backend died moves: the first
// backend after it, cyclically, whose breaker admits traffic; nil when
// none does.
func (g *Gateway) successor(dead *backend) *backend {
	k := len(g.backends)
	for i := 1; i < k; i++ {
		if b := g.backends[(dead.idx-1+i)%k]; b.breaker.Allow() {
			return b
		}
	}
	return nil
}

// openOn creates a backend-side session with the given body. Like
// pullFrom it returns (created, 0, nil) on success, (_, status, message)
// for a client-facing refusal — a 4xx, the query's own fault, passed
// through — and (_, 0, error) for a backend failure: transport errors,
// 5xx, a malformed answer.
func (g *Gateway) openOn(ctx context.Context, b *backend, body []byte) (service.Created, int, error) {
	var cr service.Created
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/sessions", bytes.NewReader(body))
	if err != nil {
		return cr, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return cr, 0, err
	}
	defer drain(resp)
	switch {
	case resp.StatusCode == http.StatusCreated:
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return cr, resp.StatusCode, errors.New(strings.TrimSpace(string(msg)))
	default:
		return cr, 0, fmt.Errorf("backend returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return cr, 0, fmt.Errorf("decode create response: %w", err)
	}
	if cr.Session == "" {
		return cr, 0, fmt.Errorf("backend returned empty session id")
	}
	return cr, 0, nil
}

// proxiedBlock is one response's view of a block pulled from a backend:
// its metadata as the backend's frame (or the standby copy) gave it,
// which writeBlock stamps with the client's seq and the gateway hop. The
// payload itself is held by reference (DESIGN.md §14): a pooled buffer
// the body was read into whole, so a backend dying mid-body is detected
// before any byte reaches the client, or a standby copy.
type proxiedBlock struct {
	*blockcache.Entry
	meta service.BlockMeta
}

// maxBlockBytes caps one proxied block's body.
const maxBlockBytes = 256 << 20

// handleNext serves POST /sessions/{id}/next. A client that promises to
// ask for the same size next (hold) is read ahead for: once a fresh block
// that is not the last is flushed, the handler pulls the next one from
// the backend before it returns — still holding sess.mu, and net/http
// reads no further request on this connection until it does.
func (g *Gateway) handleNext(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	g.mu.Lock()
	sess, ok := g.sessions[r.PathValue("id")]
	g.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.touch()
	// The request grammar and the seq window are the service's: the
	// gateway keeps, like a pull session, only the newest block replayable.
	q, err := service.ParseQuery(r.URL.Query(), service.Limits{}, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	seq, class := service.ClassifySeq(q.Seq, sess.lastSeq, sess.lastSeq, sess.done)
	if class.Refuse(w, seq) {
		return
	}
	replay := class == service.SeqReplay

	if replay && sess.last != nil {
		// The backend has committed the block after this one: answer as
		// its replay would, on a write reference of its own.
		cp := *sess.last
		cp.meta.Replayed = true
		cp.Retain()
		g.writeBlock(w, sess, &cp, q.Seq, started)
		cp.Release()
		return
	}
	if replay && seq == sess.seqBase {
		// The block predates the current backend session (it was served
		// from the standby copy during a failover; its translated seq
		// would be 0). Serve the standby copy again.
		if sess.standby == nil || len(sess.standby.Payload) == 0 {
			httpError(w, http.StatusConflict, "seq %d is no longer replayable after failover", seq)
			return
		}
		blk := g.standbyBlock(sess.standby)
		g.writeBlock(w, sess, blk, q.Seq, started)
		blk.Release()
		return
	}

	var blk *proxiedBlock
	if !replay && sess.ahead != nil && sess.aheadSize == q.Size {
		blk, sess.ahead = sess.ahead, nil
		g.stats.readAheadHits.Add(1)
	} else {
		if !replay && (sess.ahead != nil || sess.resync) {
			// A promise broken or a read-ahead failed: the backend is past
			// the client, or nobody knows where.
			g.stats.readAheadMisses.Add(1)
			if sess.ahead != nil {
				sess.ahead.Release()
				sess.ahead = nil
			}
			err = g.resync(r.Context(), sess)
		}
		var status int
		if err == nil {
			blk, status, err = g.pullFrom(r.Context(), sess.backend, sess.backendID, service.Query{Size: q.Size, Seq: seq - sess.seqBase, Hold: q.Hold})
		}
		if status != 0 {
			// A definitive client-facing status from the backend (409, 410,
			// 400...): pass it and its message through untouched.
			httpError(w, status, "%v", err)
			return
		}
		if err != nil {
			sess.backend.breaker.Failure()
			g.logf("session %s: pull seq %d on %s failed: %v", sess.id, seq, sess.backend.url, err)
			blk, err = g.failover(r.Context(), sess, seq, q, replay)
			if err != nil {
				httpError(w, http.StatusBadGateway, "failover: %v", err)
				return
			}
		} else {
			sess.backend.breaker.Success()
		}
	}

	if !replay {
		sess.lastSeq = seq
		sess.lastTuples = blk.meta.Tuples
		sess.committed += int64(blk.meta.Tuples)
		sess.done = blk.meta.Done
		sess.standby = nil
		sess.resync = false
		if sess.last != nil {
			sess.last.Release()
			sess.last = nil
		}
	}
	if g.writeBlock(w, sess, blk, q.Seq, started) && q.Hold && !replay &&
		!sess.done && sess.backendID != "" && blk.meta.DelayMS == 0 {
		// A priced delay models the network: it stays on the client's clock.
		sess.last = blk
		g.readAhead(r.Context(), sess, q.Size)
		return
	}
	blk.Release()
}

// readAhead pulls the block after lastSeq from the session's backend into
// ahead, for a client that promised to ask for size next. The backend
// commits it; a failure leaves its cursor unknown (resync). The pull is
// the session's, not the request's: a client that closes its connection
// once it holds its block (one whose idle pool is full does) must not
// cancel a pull the backend may already have committed, or the re-open
// would serve that block twice. Called with sess.mu held.
func (g *Gateway) readAhead(ctx context.Context, sess *gwSession, size int) {
	blk, status, err := g.pullFrom(context.WithoutCancel(ctx), sess.backend, sess.backendID, service.Query{Size: size, Seq: sess.lastSeq + 1 - sess.seqBase, Hold: true})
	if err != nil {
		g.logf("session %s: read ahead on %s: status %d: %v", sess.id, sess.backend.url, status, err)
		sess.resync = true
		return
	}
	sess.ahead, sess.aheadSize = blk, size
}

// resync re-opens sess on its backend at the committed cursor, as a
// failover's fresh pull does on a successor, and deletes the backend
// session it leaves. Called with sess.mu held.
func (g *Gateway) resync(ctx context.Context, sess *gwSession) error {
	id, err := g.reopen(ctx, sess, sess.backend, sess.committed)
	if err != nil {
		return err
	}
	g.deleteBackendSession(sess.backend, sess.backendID)
	sess.backendID, sess.seqBase = id, sess.lastSeq
	return nil
}

// standbyBlock copies a replicated copy of a session's newest block into
// a block of its own, for serving in place of its dead primary, and
// counts the standby replay.
func (g *Gateway) standbyBlock(ss *replica.SessionState) *proxiedBlock {
	g.stats.standbyReplays.Add(1)
	return &proxiedBlock{
		Entry: g.refs.Copy(ss.Payload, ss.Tuples, ss.Done),
		meta:  service.BlockMeta{Tuples: ss.Tuples, Done: ss.Done, Replayed: true},
	}
}

// pullFrom forwards one pull, q naming the backend's seq, to a backend.
// It returns (block, 0, nil) on success, (nil, status, message) for
// client-facing backend statuses that must be passed through, and
// (nil, 0, error) for backend failures that warrant failover (transport
// errors, 5xx, and 404 — the backend lost the session, e.g. it
// restarted).
func (g *Gateway) pullFrom(ctx context.Context, b *backend, backendID string, q service.Query) (*proxiedBlock, int, error) {
	u := b.url + "/sessions/" + url.PathEscape(backendID) + "/next?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer drain(resp)
	switch {
	case resp.StatusCode == http.StatusOK:
		// Buffered below.
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusNotFound:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("backend returned %s: %s", resp.Status, msg)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, resp.StatusCode, errors.New(string(msg))
	}
	// Store-and-forward: the whole body, one frame, lands in one pooled
	// buffer before the caller sees it. Sized up front from
	// Content-Length, plus the spare room ReadFrom wants before the read
	// that returns EOF, the buffer never regrows; a warm one is not even
	// allocated. Only the payload is kept: writeBlock frames it afresh.
	buf := blockcache.Buffer()
	if n := resp.ContentLength; n > 0 && n <= maxBlockBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBlockBytes+1))
	if err == nil && (n > maxBlockBytes || resp.ContentLength >= 0 && n != resp.ContentLength) {
		err = fmt.Errorf("%d bytes against Content-Length %d and a %d-byte cap", n, resp.ContentLength, maxBlockBytes)
	}
	var f wire.Frame
	if err == nil {
		var paylen int
		f, paylen, err = wire.ParseFrameHeader(buf.Bytes(), maxBlockBytes)
		switch {
		case err != nil:
		case f.Type != wire.FrameData:
			err = fmt.Errorf("a frame of type 0x%02x", f.Type)
		case wire.FrameHeaderLen+paylen != buf.Len():
			err = fmt.Errorf("a frame of %d payload bytes in a %d-byte body", paylen, buf.Len())
		}
	}
	if err != nil {
		blockcache.PutBuffer(buf)
		return nil, 0, fmt.Errorf("read block body: %w", err)
	}
	buf.Next(wire.FrameHeaderLen)
	meta := service.FrameMeta(f)
	return &proxiedBlock{Entry: g.refs.Pooled(buf, meta.Tuples, meta.Done), meta: meta}, 0, nil
}

// failover moves sess to the next healthy backend after its primary
// died, and produces the block for the in-flight pull. Called with
// sess.mu held.
//
// For a REPLAY of the last committed seq, the standby copy shipped by
// replication serves the exact committed bytes; if replication lagged
// behind the crash, the gateway re-opens the successor just before the
// lost block (committed - lastTuples) and re-pulls the same rows — the
// data is deterministic, so the block carries the identical tuples. For
// a FRESH pull, the successor re-opens at the committed cursor and the
// seq translation (seqBase) splices its sequence numbers into the
// client's.
func (g *Gateway) failover(ctx context.Context, sess *gwSession, seq uint64, q service.Query, replay bool) (*proxiedBlock, error) {
	dead := sess.backend
	target := g.successor(dead)
	if target == nil {
		return nil, fmt.Errorf("no healthy backend to promote for session %s", sess.id)
	}

	var blk *proxiedBlock
	switch {
	case replay:
		// The client is retrying the last committed block: serve the
		// standby copy when replication caught up to it. The copy is
		// trusted only when its seq AND committed cursor match this
		// session exactly, and — when the create record is still within
		// the retention window — the replicated create body is the one
		// this gateway sent: a restarted backend reuses session ids, so
		// state under the right id can belong to an unrelated session.
		// On any mismatch the deterministic re-pull below is the only
		// safe replay.
		ss, ok := dead.store.Get(sess.backendID)
		if ok && ss.Seq == sess.lastSeq-sess.seqBase && ss.Seq > 0 && len(ss.Payload) > 0 &&
			ss.Committed == sess.committed && ss.Done == sess.done &&
			(len(ss.Query) == 0 || bytes.Equal(ss.Query, sess.openBody)) {
			// Repeat retries of this seq can't be served by the promoted
			// backend (translated seq 0); keep a private copy reachable.
			sess.standby = &ss
			blk = g.standbyBlock(&ss)
			if !sess.done {
				// Future fresh pulls need a live backend session at the
				// committed cursor.
				id, err := g.reopen(ctx, sess, target, sess.committed)
				if err != nil {
					return nil, err
				}
				sess.backendID = id
				sess.seqBase = sess.lastSeq
			} else {
				// Final block: no successor session to open. seqBase must
				// still advance so repeat retries keep hitting the standby
				// fast-path, and the dead primary's id must never route to
				// the promoted backend (a 404 there would read as a death
				// of the healthy successor and cascade failovers).
				sess.backendID = ""
				sess.seqBase = sess.lastSeq
			}
			break
		}
		// Replication lagged behind the crash: re-open just before the
		// lost block and re-pull the same rows (deterministic data ⇒
		// identical tuples).
		id, err := g.reopen(ctx, sess, target, sess.committed-int64(sess.lastTuples))
		if err != nil {
			return nil, err
		}
		pulled, status, err := g.pullFrom(ctx, target, id, service.Query{Size: sess.lastTuples, Seq: 1})
		if err != nil {
			return nil, fmt.Errorf("re-pull lost block on %s: status %d: %v", target.url, status, err)
		}
		if pulled.meta.Tuples != sess.lastTuples {
			pulled.Release()
			return nil, fmt.Errorf("re-pulled block has %d tuples, committed block had %d", pulled.meta.Tuples, sess.lastTuples)
		}
		pulled.meta.Replayed = true
		sess.backendID = id
		sess.seqBase = sess.lastSeq - 1
		blk = pulled
		g.stats.fallbackReplays.Add(1)
	default:
		// Fresh pull: resume the query at the committed cursor.
		id, err := g.reopen(ctx, sess, target, sess.committed)
		if err != nil {
			return nil, err
		}
		pulled, status, err := g.pullFrom(ctx, target, id, service.Query{Size: q.Size, Seq: 1, Hold: q.Hold})
		if err != nil {
			return nil, fmt.Errorf("resume pull on %s: status %d: %v", target.url, status, err)
		}
		sess.backendID = id
		sess.seqBase = sess.lastSeq
		blk = pulled
	}

	target.breaker.Success()
	dead.sessions.Add(-1)
	target.sessions.Add(1)
	sess.backend = target
	sess.failovers++
	g.stats.failovers.Add(1)
	g.logf("session %s failed over %s -> %s (seq %d, committed %d, replay=%v)",
		sess.id, dead.url, target.url, seq, sess.committed, replay)
	return blk, nil
}

// reopen creates a backend-side session for sess on b at the given
// absolute cursor: the client's query with its Offset rewritten. Any
// refusal is b's failure — the query itself was accepted once.
func (g *Gateway) reopen(ctx context.Context, sess *gwSession, b *backend, offset int64) (string, error) {
	q := sess.query
	q.Offset = int(offset)
	body, err := json.Marshal(q)
	if err != nil {
		return "", err
	}
	cr, _, err := g.openOn(ctx, b, body)
	if err != nil {
		b.breaker.Failure()
		return "", fmt.Errorf("re-open session on %s: %w", b.url, err)
	}
	sess.openBody = body
	return cr.Session, nil
}

// blockWriteDeadline bounds one block's write and flush to a client: the
// daemons set no WriteTimeout, and a client that stops reading would
// otherwise pin sess.mu and the session's blocks. A variable only so
// that tests can shorten it.
var blockWriteDeadline = 2 * time.Minute

// writeBlock writes one proxied block to the client as one frame and
// flushes it, within blockWriteDeadline, stamping the seq the client
// named (echoSeq; 0 = it named none, nothing is echoed) and the gateway
// hop on its metadata. Like the service, it counts the block before the
// write — the client holds it the moment the write returns — and takes a
// failed write back. It reports whether the block went out whole. Called
// with sess.mu held.
func (g *Gateway) writeBlock(w http.ResponseWriter, sess *gwSession, blk *proxiedBlock, echoSeq uint64, started time.Time) bool {
	meta := blk.meta
	meta.Seq, meta.Backend, meta.Failovers = echoSeq, sess.backend.idx, sess.failovers
	service.SetFrameHeaders(w.Header(), wire.FrameHeaderLen+len(blk.Bytes()), meta.Done)
	// Recorders answer ErrNotSupported.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(blockWriteDeadline))
	defer rc.SetWriteDeadline(time.Time{})
	g.stats.blocksProxied.Add(1)
	g.stats.tuplesProxied.Add(int64(meta.Tuples))
	err := wire.WriteFrame(w, meta.Frame(blk.Bytes()))
	if err == nil {
		err = rc.Flush()
	}
	if err != nil {
		g.stats.blocksProxied.Add(-1)
		g.stats.tuplesProxied.Add(-int64(meta.Tuples))
		g.logf("session %s: write block: %v", sess.id, err)
		return false
	}
	g.blockServe.Observe(float64(time.Since(started)) / float64(time.Millisecond))
	return true
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	sess, ok := g.sessions[id]
	if ok {
		delete(g.sessions, id)
	}
	g.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	b, bid := sess.end()
	b.sessions.Add(-1)
	g.Release()
	g.deleteBackendSession(b, bid)
	g.logf("session %s closed", id)
	w.WriteHeader(http.StatusNoContent)
}

// deleteBackendSession best-effort deletes a backend-side session; the
// backend janitor collects strays. bid may be empty (a done session
// served its final block from the standby copy and has no live backend
// half).
func (g *Gateway) deleteBackendSession(b *backend, bid string) {
	if bid == "" {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, b.url+"/sessions/"+url.PathEscape(bid), nil)
		if err != nil {
			return
		}
		if resp, err := g.hc.Do(req); err == nil {
			drain(resp)
		}
	}()
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// BackendStats is one backend's health and replication view in Stats.
type BackendStats struct {
	URL      string `json:"url"`
	State    string `json:"state"`
	Sessions int64  `json:"sessions"`
	// LagRecords is how many replication records the backend had appended
	// that the gateway has not yet applied (at the last successful pull).
	LagRecords uint64 `json:"lag_records"`
	// LagMS is the ship-to-apply latency of the most recent record.
	LagMS float64 `json:"lag_ms"`
	// StandbySessions is how many sessions have standby state here.
	StandbySessions int    `json:"standby_sessions"`
	Applied         uint64 `json:"applied"`
	Lost            uint64 `json:"lost"`
	// PrimaryRestarts counts primary restarts the replication puller
	// observed (boot id changed or the feed's LSNs regressed); each one
	// rewound the cursor and cleared this backend's standby store.
	PrimaryRestarts uint64 `json:"primary_restarts"`
	// Cache is the backend's encoded-block cache snapshot, fetched
	// best-effort from its /stats when GET /stats is served; nil when the
	// backend runs without a cache or did not answer in time.
	Cache *blockcache.Stats `json:"cache,omitempty"`
}

// SessionInfo is one live session's routing view in Stats.
type SessionInfo struct {
	ID        string `json:"id"`
	Backend   string `json:"backend"`
	BackendID string `json:"backend_id"`
	LastSeq   uint64 `json:"last_seq"`
	Committed int64  `json:"committed"`
	Failovers int    `json:"failovers"`
}

// Stats is the gateway's aggregate view, served at GET /stats.
// ReadAheadHits counts a promising client's fresh pulls answered with the
// block read ahead for them, ReadAheadMisses those that found the promise
// broken or the read-ahead failed and re-opened the backend session.
type Stats struct {
	SessionsOpened  int64          `json:"sessions_opened"`
	SessionsShed    int64          `json:"sessions_shed"`
	SessionsExpired int64          `json:"sessions_expired"`
	BlocksProxied   int64          `json:"blocks_proxied"`
	TuplesProxied   int64          `json:"tuples_proxied"`
	Failovers       int64          `json:"failovers"`
	StandbyReplays  int64          `json:"standby_replays"`
	FallbackReplays int64          `json:"fallback_replays"`
	ReadAheadHits   int64          `json:"read_ahead_hits"`
	ReadAheadMisses int64          `json:"read_ahead_misses"`
	SessionLimit    int            `json:"session_limit"`
	Pressure        float64        `json:"admission_pressure"`
	Backends        []BackendStats `json:"backends"`
	Sessions        []SessionInfo  `json:"sessions"`
}

// Stats snapshots the gateway's counters, backends, and live sessions.
func (g *Gateway) Stats() Stats {
	st := Stats{
		SessionsOpened:  g.stats.sessionsOpened.Load(),
		SessionsShed:    g.stats.sessionsShed.Load(),
		SessionsExpired: g.stats.sessionsExpired.Load(),
		BlocksProxied:   g.stats.blocksProxied.Load(),
		TuplesProxied:   g.stats.tuplesProxied.Load(),
		Failovers:       g.stats.failovers.Load(),
		StandbyReplays:  g.stats.standbyReplays.Load(),
		FallbackReplays: g.stats.fallbackReplays.Load(),
		ReadAheadHits:   g.stats.readAheadHits.Load(),
		ReadAheadMisses: g.stats.readAheadMisses.Load(),
		SessionLimit:    g.SessionLimit(),
		Pressure:        g.AdmissionPressure(),
	}
	for _, b := range g.backends {
		st.Backends = append(st.Backends, BackendStats{
			URL:             b.url,
			State:           b.breaker.State().String(),
			Sessions:        b.sessions.Load(),
			LagRecords:      b.puller.Lag(),
			LagMS:           b.store.LastLagMS(),
			StandbySessions: b.store.Sessions(),
			Applied:         b.store.Applied(),
			Lost:            b.store.Lost(),
			PrimaryRestarts: b.puller.Restarts(),
		})
	}
	// Snapshot the session pointers under g.mu, then take each sess.mu
	// individually: handleNext holds sess.mu across the whole backend
	// round-trip, and holding g.mu while waiting on one busy session
	// would stall every create/next/delete on the gateway.
	g.mu.Lock()
	live := make([]*gwSession, 0, len(g.sessions))
	for _, sess := range g.sessions {
		live = append(live, sess)
	}
	g.mu.Unlock()
	for _, sess := range live {
		sess.mu.Lock()
		st.Sessions = append(st.Sessions, SessionInfo{
			ID:        sess.id,
			Backend:   sess.backend.url,
			BackendID: sess.backendID,
			LastSeq:   sess.lastSeq,
			Committed: sess.committed,
			Failovers: sess.failovers,
		})
		sess.mu.Unlock()
	}
	return st
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	st := g.Stats()
	g.attachBackendCaches(r.Context(), &st)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		g.logf("encode stats: %v", err)
	}
}

// attachBackendCaches enriches each backend's Stats entry with that
// backend's own encoded-block cache snapshot, fetched in parallel from
// its /stats endpoint. Strictly best-effort with a short deadline: a
// dead, slow, or cache-less backend just leaves the field nil — the
// gateway's own stats must never hang on a backend's. Kept out of
// Stats() so in-process callers stay free of network fan-out.
func (g *Gateway) attachBackendCaches(ctx context.Context, st *Stats) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := range st.Backends {
		wg.Add(1)
		go func(b *BackendStats) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/stats", nil)
			if err != nil {
				return
			}
			resp, err := g.hc.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var payload struct {
				Cache *blockcache.Stats `json:"cache"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&payload); err == nil {
				b.Cache = payload.Cache
			}
		}(&st.Backends[i])
	}
	wg.Wait()
}

func (g *Gateway) logf(format string, args ...any) {
	if g.logger != nil {
		g.logger.Printf(format, args...)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
}
