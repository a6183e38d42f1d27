// Package service implements the web service that wraps the embedded
// database — the reproduction of the paper's OGSA-DAI data service on
// Apache Tomcat. Clients create a query session and then pull the result
// set block by block, choosing each block's size, exactly as in
// Algorithm 1 of the paper:
//
//	POST   /sessions                 {"table": "...", "columns": [...]}
//	POST   /sessions/{id}/next?size=N&seq=S   -> one encoded block
//	POST   /sessions/{id}/stream?size=N&window=W&from=S   -> framed blocks, pushed
//	       (with the POST /sessions body, on a name the client picked — "c" and
//	       32 hex digits — that the server does not know: creates the session)
//	POST   /sessions/{id}/credit?acked=A&window=W&size=N  -> 204 (the stream's acks)
//	DELETE /sessions/{id}
//	POST   /ingest, POST /ingest/{id}/block?seq=S, DELETE /ingest/{id}   (uploads)
//	GET    /healthz
//	GET    /load       PUT /load     {"jobs":J, "queries":Q, "memory":M}
//
// /next and /stream are two framings of one session protocol
// (protocol.go): one retained tail, one produce path, one serve function.
//
// The service can inject per-block delays drawn from a netsim cost model
// scaled by the configured load, so a single laptop reproduces the WAN and
// loaded-server conditions of the paper's testbed at a configurable time
// scale.
//
// The per-block hot path is lock-free across sessions: the session maps
// are sharded (shard.go), the Stats counters are atomics (stats.go), the
// load knob is an atomic pointer, and the delay-noise RNG is per-session
// — so concurrent sessions only synchronize on their own session mutex
// and throughput scales with cores (see DESIGN.md §12).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/replica"
	"wsopt/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Catalog serves the queries. Required.
	Catalog *minidb.Catalog
	// Codec encodes blocks (default: wire.XML).
	Codec wire.Codec
	// CostModel, when non-zero, prices each block; the priced delay times
	// SleepScale is slept before responding. A zero model injects
	// nothing — the service still has its genuine compute/serialize cost.
	CostModel netsim.CostModel
	// SleepScale converts simulated milliseconds into real ones
	// (e.g. 0.001 replays a WAN profile a thousand times faster).
	SleepScale float64
	// SessionTTL expires idle sessions (default 5 minutes).
	SessionTTL time.Duration
	// MaxBlockSize rejects absurd size requests (default 1,000,000).
	MaxBlockSize int
	// Logger receives request-level diagnostics; nil disables logging.
	Logger *log.Logger
	// Seed seeds the delay-noise RNG (and, offset, the fault RNG). The
	// first cursor opened against the server draws its delay noise from
	// exactly this seed; later cursors get decorrelated streams derived
	// from it (see sessionSeed).
	Seed int64
	// Faults injects transport failures on the block endpoints for
	// chaos testing; the zero value injects nothing.
	Faults FaultConfig
	// MaxSessions seeds the admitted-session ceiling (downloads +
	// uploads). When the ceiling is reached, session creation is shed with
	// 503 and a Retry-After header before any query executes, so an
	// overloaded server degrades into fast, explicit refusals instead of a
	// timeout pile-up. Zero means unlimited. This is only the *initial*
	// value: at runtime the ceiling is a live setpoint owned by the SLO
	// regulator (or an operator) via SetSessionLimit.
	MaxSessions int
	// RetryAfter is the base backoff hint sent with shed requests
	// (default 1s). On the wire it is scaled by the live admission
	// pressure and rounded up to whole seconds — see admission.go.
	RetryAfter time.Duration
	// LoadFromSessions couples the injected-delay cost model to the
	// server's *actual* concurrency: each block is priced under the
	// configured load plus one simulated concurrent query per other live
	// download session. This closes the physical loop the SLO regulator
	// needs — admitting more sessions genuinely raises every session's
	// block RTT — so a single binary can reproduce the coupled
	// client/server control experiments end to end.
	LoadFromSessions bool
	// Metrics receives the service's counters and histograms; nil uses a
	// private registry so recording is always safe. Pass the registry
	// that backs /metrics to expose them.
	Metrics *metrics.Registry
	// Replica, when non-nil, receives a replication record on every
	// session mutation (create, block commit, close/expiry) and is served
	// as a pull feed at GET /replication/feed, so a follower can keep a
	// standby copy of every session's cursor and in-flight block. The log
	// holds a reference to each shipped block until the record is
	// evicted (DESIGN.md §14).
	Replica *replica.Log
	// PushMaxWindow caps the credit window a client may grant (default
	// 1024 blocks in flight). A grant above the cap is clamped, not
	// refused. The cap bounds bookkeeping, the frames a tail and a
	// reconnect's replay list hold; memory is bounded in bytes.
	PushMaxWindow int
	// PushMaxFrameBytes caps a single push frame's encoded payload
	// (default 8 MiB). A block that encodes past the cap terminates the
	// stream with an error frame — it signals a block-size/codec
	// configuration the operator must fix, not a transient. Twice it is
	// each stream's byte budget (pushBudget).
	PushMaxFrameBytes int
	// Cache, when non-nil, is the content-addressed encoded-block cache
	// consulted before every scan + encode. Keys commit to the plan, the
	// absolute cursor, the block size, the codec (and gzip level), and
	// the catalog's dataset version, so repeated queries across sessions
	// — including gateway failover re-opens — serve hits at ~memcpy cost
	// and a dataset write invalidates by construction (see DESIGN.md §18).
	Cache *blockcache.Cache
}

// Server is the block-pull web service.
//
// There is no global mutex on the request path: sessions and ingests are
// sharded stores, stats are atomic counters, load is an atomic pointer,
// and cursor admission is an atomic reservation counter. A request
// synchronizes only with other requests for the same session.
type Server struct {
	cfg    Config
	codec  wire.Codec
	mux    *http.ServeMux
	faults *faultInjector
	// limits bounds every request's query (protocol.go).
	limits Limits

	load     atomic.Pointer[netsim.Load]
	sessions *shardedStore[*session]
	ingests  *shardedStore[*ingestSession]
	nextID   atomic.Uint64
	// Admission is the slot counter plus the live session limit and
	// delay-pricing pressure — the two actuators the SLO regulator drives
	// (admission.go).
	*Admission
	// groups accounts for parallel-stream clients (streams.go); touched
	// only on session create/close, never on the block hot path.
	groups streamGroups

	stats serverStats
	hist  histograms
	// refs counts the block references this server holds
	// (RetainedBlocks).
	refs blockcache.Refs
	// encodes counts the read-ahead encodes running off their handlers;
	// RetainedBlocks joins them.
	encodes inflight
}

// inflight counts goroutines in flight and lets a caller wait until none
// is. Unlike a sync.WaitGroup, it may be waited on while more start.
type inflight struct {
	mu   sync.Mutex
	idle sync.Cond // on mu; broadcast when n reaches zero
	n    int
}

func (f *inflight) add() {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
}

func (f *inflight) done() {
	f.mu.Lock()
	if f.n--; f.n == 0 {
		f.idle.Broadcast()
	}
	f.mu.Unlock()
}

// wait returns once no goroutine is in flight.
func (f *inflight) wait() {
	f.mu.Lock()
	for f.n > 0 {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

// New builds a Server; the catalog is required.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("service: config needs a catalog")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if cfg.Codec == nil {
		cfg.Codec = wire.XML{}
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 5 * time.Minute
	}
	if cfg.MaxBlockSize <= 0 {
		cfg.MaxBlockSize = 1_000_000
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("service: max sessions %d must be non-negative", cfg.MaxSessions)
	}
	if cfg.PushMaxWindow <= 0 {
		cfg.PushMaxWindow = DefaultPushMaxWindow
	}
	if cfg.PushMaxFrameBytes <= 0 {
		cfg.PushMaxFrameBytes = DefaultPushMaxFrameBytes
	}
	if cfg.PushMaxFrameBytes > wire.MaxFramePayload {
		return nil, fmt.Errorf("service: push max frame %d exceeds wire limit %d", cfg.PushMaxFrameBytes, wire.MaxFramePayload)
	}
	s := &Server{
		cfg:      cfg,
		codec:    cfg.Codec,
		faults:   newFaultInjector(cfg.Faults, cfg.Seed+1),
		limits:   Limits{MaxSize: cfg.MaxBlockSize, MaxWindow: cfg.PushMaxWindow},
		sessions: newShardedStore[*session](),
		ingests:  newShardedStore[*ingestSession](),

		Admission: NewAdmission(cfg.MaxSessions, cfg.RetryAfter),
	}
	s.encodes.idle.L = &s.encodes.mu
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.registerMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("POST /sessions/{id}/next", s.handleNext)
	mux.HandleFunc("POST /sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /sessions/{id}/credit", s.handleCredit)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /load", s.handleGetLoad)
	mux.HandleFunc("PUT /load", s.handlePutLoad)
	mux.HandleFunc("GET /stats", s.handleStats)
	if cfg.Replica != nil {
		mux.HandleFunc("GET /replication/feed", replica.FeedHandler(cfg.Replica))
	}
	s.registerIngestRoutes(mux)
	s.mux = mux
	return s, nil
}

// Stats aggregates service-level counters, exposed at GET /stats.
// The snapshot method lives in stats.go next to the atomic backing store.
type Stats struct {
	// SessionsOpened counts download sessions ever created.
	SessionsOpened int64 `json:"sessions_opened"`
	// BlocksServed counts block responses fully written to clients
	// (replays included — it is the number of completed block serves,
	// not the number of distinct blocks produced).
	BlocksServed int64 `json:"blocks_served"`
	// TuplesServed counts tuples in fully written block responses.
	TuplesServed int64 `json:"tuples_served"`
	// BlocksReplayed counts block responses served verbatim from a
	// session's replay buffer (client retried a seq).
	BlocksReplayed int64 `json:"blocks_replayed"`
	// EncodeFailures counts blocks whose codec encoding failed; the
	// rows stay carried in the session so a same-seq retry can re-encode.
	EncodeFailures int64 `json:"encode_failures"`
	// IngestsOpened counts upload sessions ever created.
	IngestsOpened int64 `json:"ingests_opened"`
	// BlocksIngested counts blocks received from clients.
	BlocksIngested int64 `json:"blocks_ingested"`
	// TuplesIngested counts tuples received from clients.
	TuplesIngested int64 `json:"tuples_ingested"`
	// BlocksIngestReplayed counts duplicate upload blocks acknowledged
	// without re-applying (client retried a seq).
	BlocksIngestReplayed int64 `json:"blocks_ingest_replayed"`
	// SessionsShed counts session creations refused by admission control
	// (503 + Retry-After) because MaxSessions cursors were already open.
	SessionsShed int64 `json:"sessions_shed"`
	// PushStreamsOpened counts push streams ever opened (reconnects
	// included — it is stream opens, not sessions in push mode).
	PushStreamsOpened int64 `json:"push_streams_opened"`
	// PushFramesSent counts data frames fully written to push streams
	// (replays included); every one is also counted in BlocksServed.
	PushFramesSent int64 `json:"push_frames_sent"`
	// PushFramesReplayed counts frames re-sent from the retained unacked
	// tail to a reconnecting stream; also counted in BlocksReplayed.
	PushFramesReplayed int64 `json:"push_frames_replayed"`
	// PushCreditGrants counts credit updates accepted on the side channel.
	PushCreditGrants int64 `json:"push_credit_grants"`
	// PushCreditStalls counts producer waits that actually blocked on an
	// exhausted credit window — the server-side backpressure signal.
	PushCreditStalls int64 `json:"push_credit_stalls"`
	// PushWindowClamped counts stream opens that asked for a window above
	// PushMaxWindow and were cut to it (the open announces the cap).
	PushWindowClamped int64 `json:"push_window_clamped"`
	// PushRetainedBytes is what the push sessions' unacked frames pin
	// now, summed over sessions: each is held to its byte budget plus
	// one frame.
	PushRetainedBytes int64 `json:"push_retained_bytes"`
	// ReadAheadHits counts blocks a pull's read-ahead prepared that a
	// request took; ReadAheadMisses those it released unused, one per
	// block, so it counts wasted prepares exactly (takeAheadLocked).
	ReadAheadHits   int64 `json:"read_ahead_hits"`
	ReadAheadMisses int64 `json:"read_ahead_misses"`
	// StreamSessionsOpened counts sessions created with a stream-group
	// tag — cursors that were one parallel stream of a larger query.
	StreamSessionsOpened int64 `json:"stream_sessions_opened"`
	// PeakGroupStreams is the high-water count of concurrently open
	// cursors within any single stream group — the server-side view of
	// the largest parallel fan-out any one client ran.
	PeakGroupStreams int64 `json:"peak_group_streams"`
	// StreamGroupsActive counts groups currently holding at least one
	// open cursor.
	StreamGroupsActive int `json:"stream_groups_active"`
	// FaultsInjected counts transport faults fired by the chaos layer,
	// by kind.
	FaultsInjected FaultStats `json:"faults_injected"`
	// Cache snapshots the encoded-block cache (nil when disabled).
	Cache *blockcache.Stats `json:"cache,omitempty"`
}

// FaultStats breaks injected faults down by kind.
type FaultStats struct {
	Dropped   int64 `json:"dropped"`
	Truncated int64 `json:"truncated"`
	Refused   int64 `json:"refused"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		s.logf("encode stats: %v", err)
	}
}

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler { return s.mux }

// SetLoad updates the simulated load shaping future blocks.
func (s *Server) SetLoad(l netsim.Load) {
	s.load.Store(&l)
}

// Load returns the current simulated load.
func (s *Server) Load() netsim.Load {
	if l := s.load.Load(); l != nil {
		return *l
	}
	return netsim.Load{}
}

// SessionCount reports live download sessions, for tests and monitoring.
func (s *Server) SessionCount() int {
	return s.sessions.size()
}

// ExpireIdle drops sessions idle longer than the TTL and returns how many
// were dropped. Call it periodically (internal/daemon runs the janitor). The
// sweep takes each shard lock briefly and reads lastUsed atomically, so
// it never races or blocks an in-flight pull — a session expired mid-pull
// finishes its block normally and the next pull gets a clean 404.
func (s *Server) ExpireIdle(now time.Time) int {
	cut := now.Add(-s.cfg.SessionTTL).UnixNano()
	ids, vals := s.sessions.removeIf(func(_ string, sess *session) bool {
		return sess.lastUsed.Load() < cut
	})
	for _, sess := range vals {
		s.closeSession(sess)
	}
	expired, _ := s.ingests.removeIf(func(_ string, ing *ingestSession) bool {
		return ing.lastUsed.Load() < cut
	})
	for _, id := range expired {
		s.faults.forget(id)
		s.Release()
	}
	return len(ids) + len(expired)
}

// session is one open block cursor: the query's iterator and position,
// plus the protocol state (tail) both framings serve from.
//
// The transfer is idempotent by per-session block numbers: a request
// for the block after the newest advances the iterator, a request for a
// block still in the tail is answered with the retained bytes — so a
// lost or truncated response is recovered by asking again, with no tuple
// skipped or duplicated.
type session struct {
	mu   sync.Mutex
	id   string
	iter minidb.Iterator
	// columns are the result's column names, immutable: what a create
	// answers with, on either way in.
	columns []string
	// group is the stream-group ID this cursor was tagged with at
	// creation ("" for standalone sessions); immutable, so the close and
	// expiry paths read it without the session lock.
	group string
	// rng draws this session's delay noise; guarded by mu (priceBlock is
	// only called with the session lock held), never by any global lock.
	rng *rand.Rand
	// lastUsed is the unix-nano timestamp of the last touch, atomic so
	// the expiry janitor reads it without racing an in-flight pull.
	lastUsed atomic.Int64

	// tail is the protocol state: newest committed block, peer's ack, the
	// retained frames between them, closed. It has its own lock (see
	// tail); blocks are committed to it with mu held as well.
	tail tail
	// cursor is the absolute committed tuple position: the create offset
	// plus every tuple in committed blocks. Replication ships it so a
	// follower can resume the query at exactly this row.
	cursor int64
	// batch is the reusable row slice the iterator's rows are pulled
	// into; next.rows is a window on it (fillLocked).
	batch []minidb.Row
	// cacheFP is the session's plan fingerprint for the encoded-block
	// cache (nil when the server runs without one); immutable after
	// create. The per-pull cache key is cacheFP + cursor + size.
	cacheFP []byte
	// iterPos is the absolute tuple position of iter: the create offset
	// plus every row ever pulled from it. It equals cursor plus the rows
	// next carries, but for cache hits, which advance cursor without
	// touching the iterator; the next scan fast-forwards iter from iterPos
	// to cursor first.
	iterPos int64
	// next is the block after the newest committed one, as far as it has
	// been made (nextBlock).
	next nextBlock
	// pullSize is the size the previous fresh pull asked for: a pull that
	// asks for it again is read ahead for (handleNext).
	pullSize int
}

// nextBlock is the rows of the session's next blocks already pulled from
// the iterator and not yet committed, from the cursor on. An encode
// failure, a cancelled delay and a read-ahead leave them here, and a
// commit consumes its tuples' worth, so every block is cut at the cursor
// at the size its request asks for, whatever the block before it left
// behind. The encoded bytes of the blocks a read-ahead prepared are the
// tail's (tail.ahead): close releases them without sess.mu.
type nextBlock struct {
	rows []minidb.Row
	// end reports that the iterator is exhausted after rows.
	end bool
}

// touch records activity for the expiry janitor.
func (sess *session) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// RetainedBlocks returns how many references to blocks this server
// holds: its sessions' tails and prepared blocks, writes in flight, and
// the replication log's records and feed writes. It is zero once every
// session is closed and the log closed; the cache's own references to
// its residents are not counted. It first waits for the read-ahead
// encodes in flight, so that a block one publishes into a closed tail
// is already released when it counts.
func (s *Server) RetainedBlocks() int64 {
	s.encodes.wait()
	return s.refs.Live()
}

// closeSession ends a session already removed from the store: the tail
// closes (its frames released, a parked producer woken) and only then is
// the close replicated, so followers drop their standby state after the
// session's last commit record, never before it.
func (s *Server) closeSession(sess *session) {
	if done := sess.tail.close(); !done {
		s.groups.leave(sess.group) // a finished cursor left at its done block (commitLocked)
	}
	s.shipClose(sess.id)
	s.faults.forget(sess.id)
	s.Release()
}

// shipCreate replicates a session creation: id, the verbatim query body
// (so a follower can re-execute the plan), and the starting cursor.
func (s *Server) shipCreate(sess *session, body []byte) {
	if s.cfg.Replica == nil {
		return
	}
	s.cfg.Replica.Append(replica.Record{
		Op:        replica.OpCreate,
		Session:   sess.id,
		Query:     json.RawMessage(body),
		Committed: sess.cursor,
	})
}

// shipCommit replicates block seq's commit: the committed cursor and the
// encoded payload a same-seq retry needs after this process dies. Called
// at the commit point (commitLocked); the record holds its own reference
// to the block until it falls out of the log, which releases it through
// Record.Ref. The feed ships the payload from that same block, holding
// one more reference (Ref.Retain) for as long as the socket write takes.
// rb is the Ref itself, so a shipped commit allocates no hook.
func (s *Server) shipCommit(sess *session, seq uint64, rb *blockcache.Entry) {
	if s.cfg.Replica == nil {
		return
	}
	rb.Retain()
	s.cfg.Replica.Append(replica.Record{
		Op:        replica.OpCommit,
		Session:   sess.id,
		Seq:       seq,
		Committed: sess.cursor,
		Tuples:    rb.Tuples(),
		Done:      rb.Done(),
		Codec:     s.codec.Name(),
		Payload:   rb.Bytes(),
		Ref:       rb,
	})
}

// shipClose replicates an orderly close or expiry so followers drop
// their standby state.
func (s *Server) shipClose(id string) {
	if s.cfg.Replica == nil {
		return
	}
	s.cfg.Replica.Append(replica.Record{Op: replica.OpClose, Session: id})
}

// sessionSeed derives the delay-noise seed for cursor number n. Cursor 1
// uses Config.Seed verbatim, so a single-session run draws exactly the
// sequence the old server-global RNG produced — labrunner and the
// experiments suites are byte-for-byte unchanged. Later cursors mix
// their number through splitmix64 so concurrent sessions draw
// decorrelated streams without sharing (or locking) anything.
func (s *Server) sessionSeed(n uint64) int64 {
	if n == 1 {
		return s.cfg.Seed
	}
	z := uint64(s.cfg.Seed) + n*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Create is the body of POST /sessions, and of the stream open that
// creates its session: the one definition of it on every tier. The
// client sends it (client.Query is this type), the gateway parses it at
// its edge and re-sends it with a new Offset when it re-opens a session.
type Create struct {
	// Table is the relation to scan.
	Table string `json:"table"`
	// Columns to project; empty selects all.
	Columns []string `json:"columns,omitempty"`
	// Where optionally filters rows server-side; SQL-flavoured syntax
	// parsed by minidb.ParseExpr (e.g. "c_acctbal > 0 AND c_mktsegment = 'BUILDING'").
	Where string `json:"where,omitempty"`
	// Limit truncates the result when positive.
	Limit int `json:"limit,omitempty"`
	// Offset skips the first Offset result tuples before the first block.
	// A failed-over session resumes on another replica from its committed
	// cursor with it.
	Offset int `json:"offset,omitempty"`
	// StreamGroup tags this cursor as one parallel stream of a larger
	// logical query. Sessions sharing a group are counted together in the
	// service's stream accounting (Stats.PeakGroupStreams); the tag has no
	// effect on query semantics. The vector runner sets it.
	StreamGroup string `json:"stream_group,omitempty"`
}

// Created is the body of a successful session creation.
type Created struct {
	Session string   `json:"session"`
	Columns []string `json:"columns"`
	// Offset echoes how many result tuples were skipped.
	Offset int `json:"offset,omitempty"`
}

// ParseCreate parses a create body strictly. A key this server does not
// know is refused, not ignored: a client that asks for an operator the
// server lacks must not get rows the operator would have changed.
// Anything after the one object is refused too, as json.Unmarshal
// refuses it. The table is required and the offset non-negative. Every
// error is the client's: a 400.
func ParseCreate(body []byte) (Create, error) {
	var req Create
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("data after the request object")
	}
	switch {
	case err != nil:
		return req, fmt.Errorf("bad request body: %w", err)
	case req.Table == "":
		return req, errors.New("missing table")
	case req.Offset < 0:
		return req, errors.New("offset must be non-negative")
	}
	return req, nil
}

// createSession is the one way a download session comes to exist, for
// POST /sessions (id == "": the server names it s%08x) and for a
// stream open that names a session the server does not know: admission,
// the plan, the offset skip, the cache fingerprint, the delay-noise seed
// and the replicated create record. On a refusal it has answered and
// returns false. Only a client-named session can find its name taken — by
// a retry of the same open that overtook it — and then that session is
// the one and this one's slot goes back.
func (s *Server) createSession(w http.ResponseWriter, r *http.Request, id string) (*session, bool) {
	if !s.admitCursor(w) {
		return nil, false
	}
	committed := false
	defer func() {
		if !committed {
			s.Release()
		}
	}()
	// The raw body is kept so replication can ship the query verbatim: a
	// follower that promotes this session re-executes exactly this plan.
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read request body: %v", err)
		return nil, false
	}
	req, err := ParseCreate(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	q := minidb.Query{Table: req.Table, Columns: req.Columns, Limit: req.Limit}
	if req.Where != "" {
		where, err := minidb.ParseExpr(req.Where)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad where clause: %v", err)
			return nil, false
		}
		q.Where = where
	}
	it, err := s.cfg.Catalog.Execute(q)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	if err := skipRows(it, req.Offset); err != nil {
		httpError(w, http.StatusInternalServerError, "skip to offset %d: %v", req.Offset, err)
		return nil, false
	}
	n := s.nextID.Add(1)
	if id == "" {
		id = fmt.Sprintf("s%08x", n)
	}
	sess := &session{id: id, iter: it, columns: it.Schema().Names(), group: req.StreamGroup, cursor: int64(req.Offset), iterPos: int64(req.Offset), rng: rand.New(rand.NewSource(s.sessionSeed(n)))}
	sess.tail.cond.L = &sess.tail.mu
	sess.tail.budget, sess.tail.retained = s.pushBudget(), &s.stats.pushRetainedBytes
	if s.cfg.Cache != nil {
		sess.cacheFP = s.planFingerprint(&req)
	}
	sess.touch()
	if first, taken := s.sessions.putIfAbsent(id, sess); taken {
		return first, true
	}
	committed = true
	s.groups.join(sess.group)
	s.shipCreate(sess, body)
	s.stats.sessionsOpened.Add(1)
	s.logf("session %s opened: table=%s cols=%v offset=%d group=%s", id, req.Table, req.Columns, req.Offset, req.StreamGroup)
	return sess, true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.createSession(w, r, "")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	// Nobody else knows the id yet: the cursor is still the create offset.
	if err := json.NewEncoder(w).Encode(Created{Session: sess.id, Columns: sess.columns, Offset: int(sess.cursor)}); err != nil {
		s.logf("session %s: encode response: %v", sess.id, err)
	}
}

// skipRows advances the iterator past n rows. Running off the end is not
// an error: the session simply starts exhausted, and the first pull
// returns an empty done-block.
func skipRows(it minidb.Iterator, n int) error {
	for i := 0; i < n; i++ {
		if _, err := it.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// planFingerprint hashes everything that determines a session's encoded
// bytes at a given cursor: the full query plan, the codec (name plus
// gzip level — two levels produce different bytes for the same rows),
// and the catalog's dataset version, captured once at create so a
// session opened after a write can never hit pre-write entries. The
// create offset is deliberately excluded: the cache key carries the
// absolute cursor, so two sessions over the same plan share entries no
// matter where each started — including a gateway failover re-open.
func (s *Server) planFingerprint(req *Create) []byte {
	level := 0
	if gz, ok := s.codec.(wire.Gzipped); ok {
		level = gz.Level
	}
	return blockcache.Fingerprint(
		req.Table,
		strings.Join(req.Columns, "\x00"),
		req.Where,
		strconv.Itoa(req.Limit),
		s.codec.Name(),
		strconv.Itoa(level),
		strconv.FormatUint(s.cfg.Catalog.Version(), 10),
	)
}

// catchUpIterator fast-forwards the session's iterator to the committed
// cursor when earlier cache hits advanced the cursor without consuming
// the iterator. A no-op when they are already level (always, without a
// cache). Caller holds sess.mu.
func catchUpIterator(sess *session) error {
	if sess.iterPos >= sess.cursor {
		return nil
	}
	if err := skipRows(sess.iter, int(sess.cursor-sess.iterPos)); err != nil {
		return err
	}
	sess.iterPos = sess.cursor
	return nil
}

// errProduceCancelled reports that the caller's context died during the
// injected delay: nothing was committed, the rows (or the cache entry)
// survive for a same-seq retry, and there is nothing to write.
var errProduceCancelled = fmt.Errorf("service: block production cancelled mid-delay")

// fillLocked pulls rows from the iterator until the session's next block
// holds size of them or the result set ends. The carried rows are a
// window on batch, so they move to its front first and the scan appends
// after them. Caller holds sess.mu.
func (sess *session) fillLocked(size int) error {
	nb := &sess.next
	have := len(nb.rows)
	if have >= size || nb.end {
		return nil
	}
	if err := catchUpIterator(sess); err != nil {
		return err
	}
	copy(sess.batch, nb.rows)
	more, end, err := minidb.NextBlockAppend(sess.iter, size-have, sess.batch[have:have])
	if err != nil {
		return err
	}
	sess.iterPos += int64(len(more))
	sess.batch = append(sess.batch[:have], more...)
	nb.rows, nb.end = sess.batch, end
	return nil
}

// blockRowsLocked returns the rows of the block of size tuples that
// starts off tuples past the cursor — the rows next carries, topped up
// from the iterator — and whether it ends the result set: done means the
// block is shorter than size, as minidb.NextBlockAppend reports it. The
// rows stay carried until a commit consumes them, so an encode failure
// loses none. The slice is a window on sess.batch that the next fill may
// move. Caller holds sess.mu.
func (sess *session) blockRowsLocked(off, size int) (rows []minidb.Row, done bool, err error) {
	if err := sess.fillLocked(off + size); err != nil {
		return nil, false, err
	}
	rows = sess.next.rows[min(off, len(sess.next.rows)):]
	return rows[:min(size, len(rows))], len(rows) < size, nil
}

// encodeBlock encodes rows into a pooled buffer, which the caller owns
// (commit it or pool it). It reads no session state but its id, so a
// read-ahead runs it off the session's lock.
func (s *Server) encodeBlock(sess *session, schema minidb.Schema, rows []minidb.Row) (*bytes.Buffer, error) {
	buf := blockcache.Buffer()
	began := time.Now()
	err := s.codec.Encode(buf, schema, rows)
	s.hist.blockEncode.Observe(float64(time.Since(began)) / float64(time.Millisecond))
	if err != nil {
		blockcache.PutBuffer(buf)
		s.stats.encodeFailures.Add(1)
		s.logf("session %s: encode block: %v", sess.id, err)
		return nil, fmt.Errorf("encode block: %w", err)
	}
	return buf, nil
}

// cacheCopy is the entry a cache fill publishes: a private copy of buf,
// which is back in the pool before the entry is resident, so that a
// cached payload can never alias a recycled buffer.
func (s *Server) cacheCopy(buf *bytes.Buffer, tuples int, done bool) *blockcache.Entry {
	ent := s.refs.Copy(buf.Bytes(), tuples, done)
	blockcache.PutBuffer(buf)
	return ent
}

// scanEncodeLocked encodes the block of size tuples at the cursor into a
// pooled buffer, which the caller owns; a retry of the same seq after a
// failure re-encodes the carried rows. Caller holds sess.mu.
func (s *Server) scanEncodeLocked(sess *session, size int) (buf *bytes.Buffer, tuples int, done bool, err error) {
	rows, done, err := sess.blockRowsLocked(0, size)
	if err != nil {
		return nil, 0, false, err
	}
	if buf, err = s.encodeBlock(sess, sess.iter.Schema(), rows); err != nil {
		return nil, 0, false, err
	}
	return buf, len(rows), done, nil
}

// prepareLocked makes the block of size tuples at the cursor without
// committing it — the cache when it has the block or can be filled, scan
// + encode otherwise — and returns it with one reference, its holder's.
// A request makes its block here when no read-ahead prepared it (the
// read-ahead's own prepare is split at the lock: prepareAheadLocked).
// Caller holds sess.mu.
func (s *Server) prepareLocked(sess *session, size int) (*blockcache.Entry, error) {
	if s.cfg.Cache != nil {
		key := blockcache.DeriveKey(sess.cacheFP, sess.cursor, size)
		// The fill runs on the GetOrFill leader: this goroutine, holding
		// sess.mu.
		ent, _, cerr := s.cfg.Cache.GetOrFill(key, func() (*blockcache.Entry, error) {
			buf, tuples, done, err := s.scanEncodeLocked(sess, size)
			if err != nil {
				return nil, err
			}
			return s.cacheCopy(buf, tuples, done), nil
		})
		// The reference GetOrFill retained for us is the holder's. A fill
		// error is our own (scan or encode); ErrFillFailed is another
		// session's concurrent fill of this key, and we produce the block
		// the uncached way.
		if cerr != blockcache.ErrFillFailed {
			return ent, cerr
		}
	}
	buf, tuples, done, err := s.scanEncodeLocked(sess, size)
	if err != nil {
		return nil, err
	}
	return s.refs.Pooled(buf, tuples, done), nil
}

// pricedDelay prices a block of the given size under the current load
// and sleeps the scaled delay (nothing, without a cost model or a sleep
// scale) unless ctx dies first; it returns the model delay and whether
// the whole of it elapsed.
func (s *Server) pricedDelay(ctx context.Context, tuples int, rng *rand.Rand) (delayMS float64, slept bool) {
	delayMS = s.priceBlock(tuples, rng)
	return delayMS, sleepInterruptible(ctx, time.Duration(delayMS*s.cfg.SleepScale*float64(time.Millisecond)))
}

// commitLocked makes rb, priced at delayMS, the session's newest block:
// the cursor moves past its tuples (and the next block's carried rows
// with it), the tail records it, and the commit is replicated — the last
// two under the tail's mutex, which close takes before OpClose is
// shipped. A session deleted or expired while the caller held sess.mu
// therefore records nothing and ships nothing (an OpCommit after the
// OpClose would resurrect a ghost session on every follower); the caller
// still writes the block it owes its peer, on its own write reference.
// It returns the block's frame. Caller holds sess.mu.
func (s *Server) commitLocked(sess *session, rb *blockcache.Entry, delayMS float64) tailFrame {
	sess.cursor += int64(rb.Tuples())
	sess.next.rows = sess.next.rows[min(rb.Tuples(), len(sess.next.rows)):]
	t := &sess.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	t.produced++
	t.done = rb.Done()
	f := tailFrame{seq: t.produced, rb: rb, delayMS: delayMS}
	if !t.closed {
		rb.Retain()
		if t.gen != 0 {
			f.charge = rb.Pinned()
			t.charge(f.charge)
		}
		t.frames = append(t.frames, f)
		s.shipCommit(sess, t.produced, rb)
		if rb.Done() {
			// The cursor has left its group's fan-out: a client does not
			// wait for a finished session's DELETE before its next one.
			s.groups.leave(sess.group)
		}
	}
	return f
}

// produceBlockLocked advances the session by exactly one block — the one
// a read-ahead prepared when it fits the size, else a fresh prepare —
// then sleeps the priced delay and commits. The returned frame's block
// carries the caller's write reference (see tail). On errProduceCancelled
// nothing was committed and the rows stay carried for a same-seq retry.
// Both framings drive the session through this single path. Caller holds
// sess.mu.
func (s *Server) produceBlockLocked(ctx context.Context, sess *session, size int) (f tailFrame, err error) {
	rb := s.takeAheadLocked(sess, size)
	if rb == nil {
		if rb, err = s.prepareLocked(sess, size); err != nil {
			return f, err
		}
	}
	delayMS, slept := s.pricedDelay(ctx, rb.Tuples(), sess.rng)
	if !slept {
		// The peer is gone mid-delay: release the session now instead of
		// pinning it for the rest of the simulated delay. Nothing is
		// committed: the rows stay carried and a cache entry resident, so a
		// same-seq retry re-serves exactly this block. The blocks prepared
		// after it would follow a block that never was: they go too.
		rb.Release()
		s.dropAheadLocked(sess)
		s.logf("session %s: block cancelled mid-delay", sess.id)
		return f, errProduceCancelled
	}
	// Commit the block before attempting to write it: from here on the
	// session state says "seq N was produced", and any delivery failure
	// is recovered by replaying the retained bytes.
	return s.commitLocked(sess, rb, delayMS), nil
}

// takeAheadLocked hands the caller the oldest block the read-ahead
// prepared, and the tail's reference with it, when it fits size — the
// block at the cursor is then exactly the one a fresh prepare would make
// — waiting for its encode if that still runs. Otherwise it drops every
// prepared block (dropAheadLocked) and returns nil: the caller prepares
// afresh from the rows still carried. A slot without a block (its encode
// failed, or close released it) drops the slots after it too. Caller
// holds sess.mu.
func (s *Server) takeAheadLocked(sess *session, size int) *blockcache.Entry {
	if sess.tail.aheadN == 0 {
		return nil
	}
	if rb := sess.tail.popAhead(); rb != nil {
		if rb.Fits(size) {
			s.stats.readAheadHits.Add(1)
			return rb
		}
		rb.Release()
		s.stats.readAheadMisses.Add(1)
	}
	s.dropAheadLocked(sess)
	return nil
}

// dropAheadLocked releases every prepared block once its encode has
// ended, one miss each; the rows they were made of stay carried. Caller
// holds sess.mu.
func (s *Server) dropAheadLocked(sess *session) {
	for sess.tail.aheadN > 0 {
		if rb := sess.tail.popAhead(); rb != nil {
			rb.Release()
			s.stats.readAheadMisses.Add(1)
		}
	}
}

// readAheadLocked tops the session's read-ahead slots up to depth blocks
// of size tuples, in order after the newest committed block, and returns
// without waiting for an encode: run after a block is flushed, it
// overlaps the next blocks' encodes with the client's decode of this
// one, and with each other. It commits nothing and prices nothing (the
// delay-noise draws stay in request order), and it stops after a block
// that ends the result set. A failure leaves the rows carried for a
// request to meet. Caller holds sess.mu.
func (s *Server) readAheadLocked(sess *session, size, depth int) {
	t := &sess.tail
	at := sess.cursor
	for i := range t.aheadN {
		sl := &t.ahead[(t.aheadAt+i)%aheadDepth]
		if sl.done {
			return
		}
		at += int64(sl.tuples)
	}
	for t.aheadN < depth && t.live(0) { // a DELETE or expiry under this pull stops it
		sl := &t.ahead[(t.aheadAt+t.aheadN)%aheadDepth]
		if !s.prepareAheadLocked(sess, sl, at, size) {
			return
		}
		t.aheadN++
		if sl.done {
			return
		}
		at += int64(sl.tuples)
	}
}

// prepareAheadLocked is the part of a read-ahead prepare that needs the
// session: it fills slot sl with the block of size tuples at absolute
// position at. A cache hit is ready at once; otherwise the block's rows
// are scanned, their headers copied into the slot (the next fill moves
// sess.batch's), and the encode started on a goroutine of its own
// (aheadSlot.encode). It reports false, with nothing in the slot, when
// the scan failed. Caller holds sess.mu.
func (s *Server) prepareAheadLocked(sess *session, sl *aheadSlot, at int64, size int) bool {
	if sl.run == nil {
		sl.srv, sl.sess, sl.schema, sl.ready = s, sess, sess.iter.Schema(), make(chan struct{}, 1)
		sl.run, sl.fill = sl.encode, sl.fillCache
	}
	if s.cfg.Cache != nil {
		sl.key = blockcache.DeriveKey(sess.cacheFP, at, size)
		if rb := s.cfg.Cache.Resident(sl.key); rb != nil {
			sl.tuples, sl.done = rb.Tuples(), rb.Done()
			sess.tail.publish(sl, rb)
			return true
		}
	}
	rows, done, err := sess.blockRowsLocked(int(at-sess.cursor), size)
	if err != nil {
		s.logf("session %s: read ahead: %v", sess.id, err)
		return false
	}
	sl.rows, sl.tuples, sl.done, sl.encoding = append(sl.rows[:0], rows...), len(rows), done, true
	s.encodes.add()
	go sl.run()
	return true
}

// encode is the body of a slot's encode goroutine: it makes the slot's
// block from the slot's own rows — through the cache when the server has
// one, so that a concurrent fill of the same key is shared — publishes
// it, and reports on ready.
func (sl *aheadSlot) encode() {
	s := sl.srv
	var rb *blockcache.Entry
	var err error
	if s.cfg.Cache != nil {
		rb, _, err = s.cfg.Cache.GetOrFill(sl.key, sl.fill)
	}
	// No cache, or another session's fill of this key failed: encode
	// the uncached way.
	if rb == nil && (err == nil || err == blockcache.ErrFillFailed) {
		var buf *bytes.Buffer
		if buf, err = s.encodeBlock(sl.sess, sl.schema, sl.rows); err == nil {
			rb = s.refs.Pooled(buf, sl.tuples, sl.done)
		}
	}
	sl.sess.tail.publish(sl, rb)
	sl.ready <- struct{}{}
	s.encodes.done()
}

// fillCache is the slot's cache fill.
func (sl *aheadSlot) fillCache() (*blockcache.Entry, error) {
	buf, err := sl.srv.encodeBlock(sl.sess, sl.schema, sl.rows)
	if err != nil {
		return nil, err
	}
	return sl.srv.cacheCopy(buf, sl.tuples, sl.done), nil
}

// handleNext serves POST /sessions/{id}/next: the response framing, one
// block per request. A client that promises to ask for this size again
// (hold) is read ahead for two blocks deep, one that asks for the size it
// asked for last one block deep: once a fresh block that is not the last
// is flushed, the handler scans the next blocks and starts their encodes
// (readAheadLocked), then returns.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	q, err := ParseQuery(r.URL.Query(), s.limits, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fault := s.faults.decide(sess.id)
	if fault == fault503 {
		// Refused before touching any session state: a clean retry.
		s.countFault(fault)
		httpError(w, http.StatusServiceUnavailable, "injected fault: service unavailable")
		return
	}

	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	seq, class, replays, _ := sess.tail.begin(q.Seq, nil)
	if class.Refuse(w, seq) {
		return
	}
	var f tailFrame
	depth := 0
	if class == SeqReplay {
		f = replays[0]
	} else {
		switch {
		case q.Hold:
			depth = aheadDepth
		case q.Size == sess.pullSize:
			depth = 1
		}
		sess.pullSize = q.Size
		f, err = s.produceBlockLocked(r.Context(), sess, q.Size)
		if err == errProduceCancelled {
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	last := f.rb.Done()
	// A legacy pull that sent no seq gets none echoed.
	err = s.serveBlock(w, sess, framing{echoSeq: q.Seq != 0, started: started}, f, class == SeqReplay, fault)
	if depth > 0 && !last && err == nil {
		s.readAheadLocked(sess, q.Size, depth)
	}
}

// sleepInterruptible sleeps for d unless the context is cancelled first;
// it reports whether the full delay elapsed.
func sleepInterruptible(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// blockWriteDeadline bounds one block's write to its peer. A reader that
// stops reading would otherwise hold the producer goroutine, its
// retained frames and (for a pull) sess.mu until the session TTL. A
// variable only so that tests can shorten it.
var blockWriteDeadline = 2 * time.Minute

// framing is how serveBlock puts a block's frame on the wire: as the
// whole body of one HTTP response (/next), or as one of the frames of the
// open stream, flushed (/stream).
type framing struct {
	stream bool
	// The response framing echoes the seq when the request named one and
	// feeds the served wall time since started (injected delay included)
	// to the block-serve histogram the SLO regulator closes its loop on.
	echoSeq bool
	started time.Time
}

// serveBlock is the one function that writes a committed block — fresh
// or replayed — to a peer. It applies the injected drop/truncate fault,
// bounds the write by blockWriteDeadline, counts the block before the
// write and takes a failed write back, and feeds the histograms once the
// write is through. It takes over the caller's write reference to the
// frame's block and drops it once the payload is written, before the
// flush that lets its last bytes leave — so a peer that holds the whole
// block finds it given back — or however the write ends otherwise (an
// injected fault leaves by panic).
func (s *Server) serveBlock(w http.ResponseWriter, sess *session, fr framing, tf tailFrame, replayed bool, fault faultKind) error {
	seq, rb, payload := tf.seq, tf.rb, tf.rb.Bytes()
	held := true
	defer func() {
		if held {
			rb.Release()
		}
	}()
	if fault == faultDrop {
		s.countFault(fault)
		s.logf("session %s: injected fault: dropping connection", sess.id)
		abortConnection()
	}
	rc := http.NewResponseController(w)
	meta := BlockMeta{Seq: seq, Tuples: rb.Tuples(), Done: rb.Done(), Replayed: replayed, DelayMS: tf.delayMS}
	if fr.stream {
		if len(payload) > s.cfg.PushMaxFrameBytes {
			// The block stays committed and retained; a reconnect meets the
			// same answer until the operator fixes the configuration.
			err := fmt.Errorf("block %d encodes to %d bytes, past the %d push frame cap — lower the block size or raise -push-max-frame",
				seq, len(payload), s.cfg.PushMaxFrameBytes)
			s.writeErrorFrame(w, sess, err)
			return err
		}
	} else {
		if !fr.echoSeq {
			meta.Seq = 0
		}
		SetFrameHeaders(w.Header(), wire.FrameHeaderLen+len(payload), meta.Done)
	}
	f := meta.Frame(payload)
	if fault == faultTruncate {
		// A short frame: the peer reads a header, then the stream or the
		// declared body ends inside the frame.
		s.countFault(fault)
		s.logf("session %s: injected fault: truncating block %d", sess.id, seq)
		var image bytes.Buffer
		_ = wire.WriteFrame(&image, f)
		_, _ = w.Write(image.Bytes()[:image.Len()/2])
		_ = rc.Flush()
		abortConnection()
	}

	// With no server-wide WriteTimeout (it would cut healthy streams)
	// nothing else bounds a write, and nothing else resets the deadline on
	// a keep-alive connection. Recorders answer ErrNotSupported.
	_ = rc.SetWriteDeadline(time.Now().Add(blockWriteDeadline))
	// With the length declared, the peer holds the whole block the moment
	// the write returns — before this handler does. Whoever reads Stats or
	// /metrics after receiving a block must find it counted, so the block
	// is counted first and a failed write takes it back.
	s.countServed(fr, rb, replayed, 1)
	err := wire.WriteFrame(w, f)
	if err == nil {
		// A writer keeps no reference to what it was given (io.Writer).
		// Both framings flush inside the deadline: a pull's read-ahead runs
		// after serveBlock returns, and must not hold back this block.
		held = false
		rb.Release()
		err = rc.Flush()
	}
	_ = rc.SetWriteDeadline(time.Time{})
	if err != nil {
		s.countServed(fr, rb, replayed, -1)
		s.logf("session %s: write block %d: %v", sess.id, seq, err)
		return err
	}
	s.hist.blockSize.Observe(float64(rb.Tuples()))
	s.hist.blockDelay.Observe(tf.delayMS)
	if !fr.stream {
		s.hist.blockServe.Observe(float64(time.Since(fr.started)) / float64(time.Millisecond))
	}
	return nil
}

// countServed adds n (+1, or -1 to take a failed write back) serves of rb
// to the counters a reader reconciles against delivered blocks.
func (s *Server) countServed(fr framing, rb *blockcache.Entry, replayed bool, n int64) {
	s.stats.blocksServed.Add(n)
	s.stats.tuplesServed.Add(n * int64(rb.Tuples()))
	if replayed {
		s.stats.blocksReplayed.Add(n)
	}
	if fr.stream {
		s.stats.pushFramesSent.Add(n)
		if replayed {
			s.stats.pushFramesReplayed.Add(n)
		}
	}
}

// BlockServeSnapshot freezes the served-block wall-time histogram. The
// SLO regulator windows consecutive snapshots into per-interval p95s.
func (s *Server) BlockServeSnapshot() metrics.HistogramSnapshot {
	return s.hist.blockServe.Snapshot()
}

// priceBlock draws the simulated delay for a block under the current
// load, using the caller's per-session RNG — no global lock is taken, so
// concurrent sessions price blocks fully in parallel. With
// LoadFromSessions set, every other live download session counts as one
// concurrent query on top of the configured load, so admitting more
// sessions genuinely degrades each session's block RTT.
func (s *Server) priceBlock(size int, rng *rand.Rand) float64 {
	m := s.cfg.CostModel
	if m.LatencyMS == 0 && m.PerTupleMS == 0 {
		return 0
	}
	l := s.Load()
	if s.cfg.LoadFromSessions {
		if others := s.sessions.size() - 1; others > 0 {
			l.Queries += others
		}
	}
	return m.Apply(l).BlockMS(size, rng)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessions.remove(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	s.closeSession(sess)
	s.logf("session %s closed", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleGetLoad(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Load()); err != nil {
		s.logf("encode load: %v", err)
	}
}

func (s *Server) handlePutLoad(w http.ResponseWriter, r *http.Request) {
	var l netsim.Load
	if err := json.NewDecoder(r.Body).Decode(&l); err != nil {
		httpError(w, http.StatusBadRequest, "bad load body: %v", err)
		return
	}
	if l.Jobs < 0 || l.Queries < 0 || l.Memory < 0 || l.Memory > 1 {
		httpError(w, http.StatusBadRequest, "load out of range")
		return
	}
	s.SetLoad(l)
	s.logf("load set to jobs=%d queries=%d memory=%.2f", l.Jobs, l.Queries, l.Memory)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
