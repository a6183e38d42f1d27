package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// The paper's motivation covers both directions: pulling results from a
// WS-wrapped database and "submitting calls to a WS to perform data
// processing", which ships data *to* the service block by block. This
// file adds the upload half of the protocol:
//
//	POST   /ingest                  {"table": "..."}   -> {"session": id}
//	POST   /ingest/{id}/block       encoded block      -> 204 (+delay headers)
//	DELETE /ingest/{id}                                -> {"tuples": n}
//
// The block size of each upload is chosen by the client's controller,
// exactly as for downloads; the same cost model prices each block.

// ingestSession is one open upload cursor.
//
// Like download sessions, uploads are idempotent under client retries:
// the client sends seq on each block, the server applies seq==lastSeq+1
// and acknowledges a re-sent seq==lastSeq without loading it again, so
// a lost 204 cannot duplicate rows.
type ingestSession struct {
	mu     sync.Mutex
	id     string
	table  *minidb.Table
	tuples int
	// rng draws this session's delay noise; guarded by mu.
	rng *rand.Rand
	// lastUsed is the unix-nano timestamp of the last touch, atomic so
	// the expiry janitor reads it without racing an in-flight block.
	lastUsed atomic.Int64

	// lastSeq is the seq of the most recently applied block (0 = none);
	// lastTuples/lastDelayMS reproduce its acknowledgement on replay.
	lastSeq     uint64
	lastTuples  int
	lastDelayMS float64
}

// touch records activity for the expiry janitor.
func (ing *ingestSession) touch() { ing.lastUsed.Store(time.Now().UnixNano()) }

// registerIngestRoutes wires the upload endpoints into the mux.
func (s *Server) registerIngestRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /ingest", s.handleIngestCreate)
	mux.HandleFunc("POST /ingest/{id}/block", s.handleIngestBlock)
	mux.HandleFunc("DELETE /ingest/{id}", s.handleIngestClose)
}

type ingestCreateRequest struct {
	Table string `json:"table"`
}

func (s *Server) handleIngestCreate(w http.ResponseWriter, r *http.Request) {
	if !s.admitCursor(w) {
		return
	}
	committed := false
	defer func() {
		if !committed {
			s.Release()
		}
	}()
	var req ingestCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Table == "" {
		httpError(w, http.StatusBadRequest, "missing table")
		return
	}
	tbl, err := s.cfg.Catalog.Table(req.Table)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	n := s.nextID.Add(1)
	id := fmt.Sprintf("i%08x", n)
	ing := &ingestSession{id: id, table: tbl, rng: rand.New(rand.NewSource(s.sessionSeed(n)))}
	ing.touch()
	s.ingests.putIfAbsent(id, ing)
	committed = true
	s.stats.ingestsOpened.Add(1)
	s.logf("ingest %s opened: table=%s", id, req.Table)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"session": id,
		"columns": tbl.Schema().Names(),
	}); err != nil {
		s.logf("ingest %s: encode response: %v", id, err)
	}
}

func (s *Server) handleIngestBlock(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.ingests.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such ingest session")
		return
	}
	q, err := ParseQuery(r.URL.Query(), s.limits, false)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	fault := s.faults.decide(sess.id)
	if fault == fault503 {
		s.countFault(fault)
		httpError(w, http.StatusServiceUnavailable, "injected fault: service unavailable")
		return
	}

	// One uploaded block is capped three ways, because the decoders buffer
	// what they read and materialise what they parse: its body like one
	// push frame or one replicated payload; what a gzipped body may inflate
	// to, at the same size (the +gzip codecs); and — while decoding, before
	// the rows are allocated — its cells, at the largest block this table
	// could legitimately carry (64 MiB of empty cells would otherwise
	// decode to a dozen times that before the size check below saw it).
	// The scratch is this request's own, so the rows own fresh memory.
	want := sess.table.Schema()
	sc := wire.Scratch{MaxCells: s.cfg.MaxBlockSize * len(want)}
	schema, rows, err := wire.DecodeBlock(s.codec, http.MaxBytesReader(w, r.Body, wire.MaxFramePayload), &sc)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig) || errors.Is(err, wire.ErrInflatedTooLarge):
			httpError(w, http.StatusRequestEntityTooLarge, "block body exceeds %d bytes", wire.MaxFramePayload)
		case errors.Is(err, wire.ErrTooManyCells):
			httpError(w, http.StatusBadRequest, "block exceeds maximum %d tuples of %d columns", s.cfg.MaxBlockSize, len(want))
		default:
			httpError(w, http.StatusBadRequest, "decode block: %v", err)
		}
		return
	}
	if len(rows) == 0 {
		httpError(w, http.StatusBadRequest, "empty block")
		return
	}
	if len(rows) > s.cfg.MaxBlockSize {
		httpError(w, http.StatusBadRequest, "block of %d tuples exceeds maximum %d", len(rows), s.cfg.MaxBlockSize)
		return
	}
	// The wire schema must match the target table (names and types, in
	// order): the upload path performs full validation before loading.
	if len(schema) != len(want) {
		httpError(w, http.StatusUnprocessableEntity, "block has %d columns, table %q has %d", len(schema), sess.table.Name(), len(want))
		return
	}
	for i := range want {
		if schema[i] != want[i] {
			httpError(w, http.StatusUnprocessableEntity, "column %d is %v, table %q expects %v", i, schema[i], sess.table.Name(), want[i])
			return
		}
	}

	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// An upload session keeps no bytes to replay, only the last block's
	// acknowledgement: its window is the newest block alone.
	seq, class := ClassifySeq(q.Seq, sess.lastSeq, sess.lastSeq, false)
	if class.Refuse(w, seq) {
		return
	}
	if class == SeqReplay {
		// Duplicate of the last applied block (the client never saw our
		// acknowledgement): ack again without loading it.
		s.stats.blocksIngestReplayed.Add(1)
		s.ackIngestBlock(w, sess.id, sess.lastTuples, sess.lastDelayMS, true, fault)
		return
	}
	if err := sess.table.BulkLoad(rows); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// The dataset changed: bump the version so encoded-block cache keys
	// derived by future sessions can never match pre-load entries.
	s.cfg.Catalog.BumpVersion()
	sess.tuples += len(rows)
	s.stats.blocksIngested.Add(1)
	s.stats.tuplesIngested.Add(int64(len(rows)))
	s.hist.blockSize.Observe(float64(len(rows)))

	// The rows are already applied, so even when the client vanishes
	// mid-delay the seq must still advance below — its retry of the same
	// seq is then a recognized duplicate, not a double-load. The
	// interruptible sleep only stops pinning the session for the rest of
	// the simulated delay.
	delayMS, _ := s.pricedDelay(r.Context(), len(rows), sess.rng)
	// Commit the seq before acknowledging: if the ack is lost (or the
	// fault layer severs the connection) the client's retry of the same
	// seq is recognized as a duplicate.
	sess.lastSeq++
	sess.lastTuples, sess.lastDelayMS = len(rows), delayMS
	s.ackIngestBlock(w, sess.id, len(rows), delayMS, false, fault)
}

// ackIngestBlock writes the 204 acknowledgement for an upload block,
// applying any injected drop/truncate fault (both sever the connection —
// a 204 has no body to truncate).
func (s *Server) ackIngestBlock(w http.ResponseWriter, id string, tuples int, delayMS float64, replayed bool, fault faultKind) {
	if fault == faultDrop || fault == faultTruncate {
		s.countFault(fault)
		s.logf("ingest %s: injected fault: dropping connection", id)
		abortConnection()
	}
	w.Header().Set(HeaderBlockTuples, strconv.Itoa(tuples))
	w.Header().Set(HeaderInjectedDelayMS, strconv.FormatFloat(delayMS, 'f', 3, 64))
	if replayed {
		w.Header().Set(HeaderBlockReplay, "true")
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleIngestClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.ingests.remove(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such ingest session")
		return
	}
	s.Release()
	s.faults.forget(id)
	// An in-flight block (looked up before the remove) may still be
	// loading; take the session lock so the tuple count read is sound.
	sess.mu.Lock()
	tuples := sess.tuples
	sess.mu.Unlock()
	s.logf("ingest %s closed after %d tuples", id, tuples)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]int{"tuples": tuples}); err != nil {
		s.logf("ingest %s: encode close response: %v", id, err)
	}
}
