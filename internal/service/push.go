package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"wsopt/internal/wire"
)

// Server-push streaming transport (DESIGN.md §16). A client opens a
// long-lived stream
//
//	POST /sessions/{id}/stream?size=N&window=W&from=S
//
// and the server frames encoded blocks onto the chunked response
// continuously, keeping up to `window` committed-but-unacked blocks in
// flight. The client grants credits on a side channel
//
//	POST /sessions/{id}/credit?acked=A&window=W&size=N
//
// where `acked` is the cumulative highest block sequence the client has
// durably consumed. Blocks, sequence numbers, commit points, pricing,
// the replay buffer and replication are all shared with the pull path —
// the stream handler drives the same produceBlockLocked the pull
// handler does, so exactly-once across reconnects and failovers holds
// by the same argument. The transport differences are confined here:
// frames instead of per-block responses, and a retained tail of
// unacked frames (instead of just the last block) so a reconnect can
// replay everything past the client's last ack.

// Push transport defaults, exported for flag tables and docs.
const (
	// DefaultPushMaxWindow caps the credit window absent configuration.
	DefaultPushMaxWindow = 64
	// DefaultPushMaxFrameBytes caps one frame's encoded payload.
	DefaultPushMaxFrameBytes = 8 << 20
)

// pushFrame is one committed-but-unacked block retained for replay to a
// reconnecting stream. rb is retained (refcounted) by the list.
type pushFrame struct {
	seq uint64
	rb  *replayBlock
}

// pushState is a session's push-mode bookkeeping. It is created by the
// first stream open and lives until the session closes. Lock order:
// sess.mu before ps.mu, never the reverse — the producer takes ps.mu
// only in short critical sections and sleeps holding neither (credit
// waits) or only sess.mu (the priced delay, exactly like a pull).
type pushState struct {
	mu   sync.Mutex
	cond *sync.Cond

	// gen is the stream generation. Opening a stream bumps it; a
	// producer from an older generation stops producing at its next
	// generation check, so at most one stream drives the session
	// forward and a reconnect cleanly takes over mid-result-set.
	gen uint64

	// size, window and acked are the client's latest grant: produce
	// blocks of `size` tuples while fewer than `window` blocks are
	// committed past `acked`.
	size   int
	window int
	acked  uint64

	// produced mirrors sess.lastSeq so the credit wait does not need
	// the session lock.
	produced uint64

	// frames retains every committed-but-unacked block, ascending seqs
	// in (acked, produced].
	frames []pushFrame

	// closed flips when the session is deleted or expires; wakes and
	// stops the producer.
	closed bool
}

func newPushState(size, window int) *pushState {
	ps := &pushState{size: size, window: window}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// grant applies a credit update. Acks are cumulative: a stale or
// repeated grant can never un-ack. Returns false when the ack is ahead
// of anything produced — a protocol error by the client.
func (ps *pushState) grant(acked uint64, window, size int) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if acked > ps.produced {
		return false
	}
	if acked > ps.acked {
		ps.acked = acked
		ps.releaseAckedLocked()
	}
	if window > 0 {
		ps.window = window
	}
	if size > 0 {
		ps.size = size
	}
	ps.cond.Broadcast()
	return true
}

// releaseAckedLocked drops retained frames the client has acked.
func (ps *pushState) releaseAckedLocked() {
	i := 0
	for ; i < len(ps.frames) && ps.frames[i].seq <= ps.acked; i++ {
		releaseReplay(ps.frames[i].rb)
		ps.frames[i].rb = nil
	}
	if i > 0 {
		ps.frames = append(ps.frames[:0], ps.frames[i:]...)
	}
}

// close wakes everyone and releases the retained tail. Called from the
// session close/expiry paths (without sess.mu — the frame list has its
// own lock and the refcounts make double-release impossible).
func (ps *pushState) close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closed = true
	for i := range ps.frames {
		releaseReplay(ps.frames[i].rb)
		ps.frames[i].rb = nil
	}
	ps.frames = ps.frames[:0]
	ps.cond.Broadcast()
}

// errPushStopped reports why a producer's credit wait ended without
// credit: the session closed or a newer stream took the session over.
var (
	errPushClosed   = fmt.Errorf("service: session closed")
	errPushTakeover = fmt.Errorf("service: a newer stream took over the session")
)

// waitCredit blocks until the window has room (returning the granted
// block size), the session closes, a newer generation takes over, or
// the stream's context dies. onStall fires once, before the first
// actual block on an exhausted window, so the backpressure signal is
// visible while the producer is still parked. The caller must have
// arranged for ctx's cancellation to broadcast ps.cond
// (context.AfterFunc), or the wait could sleep past a dead connection.
func (ps *pushState) waitCredit(ctx context.Context, gen uint64, maxWindow int, onStall func()) (int, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	stalled := false
	for {
		switch {
		case ps.closed:
			return 0, errPushClosed
		case ps.gen != gen:
			return 0, errPushTakeover
		case ctx.Err() != nil:
			return 0, ctx.Err()
		}
		window := ps.window
		if window > maxWindow {
			window = maxWindow
		}
		if ps.produced < ps.acked+uint64(window) && ps.size > 0 {
			return ps.size, nil
		}
		if !stalled {
			stalled = true
			if onStall != nil {
				onStall()
			}
		}
		ps.cond.Wait()
	}
}

// takeover bumps the generation for a newly opened stream and collects
// the retained frames the new stream must replay (seq >= from), each
// with an extra reference for the caller's writes. Caller holds
// sess.mu; acking from-1 is the open's implied cumulative ack.
func (ps *pushState) takeover(from uint64, size, window int) (gen uint64, replay []pushFrame, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if from <= ps.acked {
		// The client wants bytes it already acked; they are gone.
		return 0, nil, false
	}
	ps.gen++
	ps.size = size
	ps.window = window
	if from-1 > ps.acked {
		ps.acked = from - 1
		ps.releaseAckedLocked()
	}
	for _, f := range ps.frames {
		if f.seq >= from {
			f.rb.retain()
			replay = append(replay, f)
		}
	}
	ps.cond.Broadcast()
	return ps.gen, replay, true
}

// checkGen reports whether gen is still the live stream generation.
func (ps *pushState) checkGen(gen uint64) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.gen == gen && !ps.closed
}

// record appends a freshly committed block to the retained tail and
// takes the writer's own reference. Returns the frames retained count
// for the in-flight gauge.
func (ps *pushState) record(seq uint64, rb *replayBlock) {
	rb.retain() // the frames list's reference
	rb.retain() // the caller's write reference
	ps.mu.Lock()
	ps.produced = seq
	ps.frames = append(ps.frames, pushFrame{seq: seq, rb: rb})
	ps.mu.Unlock()
}

// pushQuery parses the stream/credit query parameters shared by both
// endpoints.
func pushQuery(r *http.Request, key string, def uint64) (uint64, error) {
	qs := r.URL.Query().Get(key)
	if qs == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(qs, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a non-negative integer", key)
	}
	return v, nil
}

// handleStream serves POST /sessions/{id}/stream: the long-lived
// chunked response framing blocks continuously under credit control.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	size, err := strconv.Atoi(r.URL.Query().Get("size"))
	if err != nil || size < 1 {
		httpError(w, http.StatusBadRequest, "size must be a positive integer")
		return
	}
	if size > s.cfg.MaxBlockSize {
		httpError(w, http.StatusBadRequest, "size %d exceeds maximum %d", size, s.cfg.MaxBlockSize)
		return
	}
	window64, err := pushQuery(r, "window", 1)
	if err != nil || window64 < 1 {
		httpError(w, http.StatusBadRequest, "window must be a positive integer")
		return
	}
	window := int(window64)
	if window > s.cfg.PushMaxWindow {
		window = s.cfg.PushMaxWindow
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	if fault := s.faults.decide(sess.id); fault == fault503 {
		// Refused before touching any session state: a clean retry.
		s.countFault(fault)
		httpError(w, http.StatusServiceUnavailable, "injected fault: service unavailable")
		return
	}

	sess.touch()
	sess.mu.Lock()
	if sess.closed.Load() {
		sess.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	ps := sess.push.Load()
	if ps == nil {
		ps = newPushState(size, window)
		if !sess.push.CompareAndSwap(nil, ps) {
			ps = sess.push.Load()
		}
	}
	from, err := pushQuery(r, "from", sess.lastSeq+1)
	if err != nil || from < 1 {
		sess.mu.Unlock()
		httpError(w, http.StatusBadRequest, "from must be a positive integer")
		return
	}
	if from > sess.lastSeq+1 {
		sess.mu.Unlock()
		httpError(w, http.StatusConflict,
			"from %d beyond the next block %d", from, sess.lastSeq+1)
		return
	}
	gen, replays, ok := ps.takeover(from, size, window)
	sess.mu.Unlock()
	if !ok {
		for i := range replays {
			releaseReplay(replays[i].rb)
		}
		httpError(w, http.StatusConflict,
			"from %d inside the acked prefix — those frames are released", from)
		return
	}

	s.stats.pushStreamsOpened.Add(1)
	s.metrics.pushStreamsOpened.Inc()
	s.logf("session %s: push stream opened (gen %d, from %d, size %d, window %d)", sess.id, gen, from, size, window)

	// Cancellation must wake a producer parked on ps.cond: the
	// connection dying is otherwise invisible to a Wait.
	stopWake := context.AfterFunc(r.Context(), func() {
		ps.mu.Lock()
		ps.cond.Broadcast()
		ps.mu.Unlock()
	})
	defer stopWake()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	// Replay the retained tail past the client's ack first; a reconnect
	// resumes mid-result-set without touching the iterator.
	for i := range replays {
		f := replays[i]
		err := s.writeFrame(w, flusher, sess, f.seq, f.rb, true)
		releaseReplay(f.rb)
		if err != nil {
			for j := i + 1; j < len(replays); j++ {
				releaseReplay(replays[j].rb)
			}
			return
		}
	}

	s.runPushProducer(w, flusher, r, sess, ps, gen)
}

// runPushProducer is the stream's serve loop: wait for credit, produce
// one block through the shared pull path, frame and flush it.
func (s *Server) runPushProducer(w http.ResponseWriter, flusher http.Flusher, r *http.Request, sess *session, ps *pushState, gen uint64) {
	for {
		size, err := ps.waitCredit(r.Context(), gen, s.cfg.PushMaxWindow, func() {
			s.stats.pushCreditStalls.Add(1)
			s.metrics.pushCreditStalls.Inc()
		})
		if err != nil {
			s.logf("session %s: push stream ends: %v", sess.id, err)
			return
		}

		sess.touch()
		sess.mu.Lock()
		if sess.closed.Load() {
			sess.mu.Unlock()
			return
		}
		if !ps.checkGen(gen) {
			// A reconnect took over between the credit wait and the
			// session lock; producing here would skip its replay window.
			sess.mu.Unlock()
			return
		}
		if sess.done {
			sess.mu.Unlock()
			// The done frame was already produced and written (or is in
			// the retained tail a replay just covered). End cleanly.
			return
		}
		rb, alive, err := s.produceBlockLocked(r.Context(), sess, size)
		if err == errProduceCancelled {
			sess.mu.Unlock()
			return
		}
		if err != nil {
			sess.mu.Unlock()
			s.writeErrorFrame(w, flusher, sess, err)
			return
		}
		seq := sess.lastSeq
		if !alive {
			// Session raced its close while we held the lock; commitLocked
			// released the session-owned buffers and we own rb. Write the
			// frame the client is owed, then stop.
			sess.mu.Unlock()
			_ = s.writeFrame(w, flusher, sess, seq, rb, false)
			releaseReplay(rb)
			return
		}
		tooBig := len(rb.payload) > s.cfg.PushMaxFrameBytes
		if !tooBig {
			ps.record(seq, rb)
		}
		done := rb.done
		sess.mu.Unlock()

		if tooBig {
			s.writeErrorFrame(w, flusher, sess, fmt.Errorf(
				"block %d encodes to %d bytes, past the %d push frame cap — lower the block size or raise -push-max-frame",
				seq, len(rb.payload), s.cfg.PushMaxFrameBytes))
			return
		}
		err = s.writeFrame(w, flusher, sess, seq, rb, false)
		releaseReplay(rb) // the writer's reference from record()
		if err != nil {
			return
		}
		if done {
			// Chunked EOF after the done frame: the client drains to EOF
			// and the connection goes back to its keep-alive pool.
			return
		}
	}
}

// writeFrame frames one committed block onto the stream and flushes it,
// applying any injected drop/truncate fault (which severs the whole
// stream — the client reconnects and the unacked tail replays). Serve
// accounting matches writeBlock: the peer holds the frame the moment
// Flush returns, so it is counted first and a failed write takes it
// back.
func (s *Server) writeFrame(w http.ResponseWriter, flusher http.Flusher, sess *session, seq uint64, rb *replayBlock, replayed bool) error {
	f := wire.Frame{
		Type:    wire.FrameData,
		Seq:     seq,
		Tuples:  uint32(rb.tuples),
		Done:    rb.done,
		Replay:  replayed,
		DelayMS: rb.delayMS,
		Payload: rb.payload,
	}
	switch fault := s.faults.decide(sess.id); fault {
	case faultDrop:
		s.countFault(fault)
		s.logf("session %s: injected fault: dropping push stream", sess.id)
		abortConnection()
	case faultTruncate:
		s.countFault(fault)
		s.logf("session %s: injected fault: truncating push frame %d", sess.id, seq)
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f); err == nil {
			_, _ = w.Write(buf.Bytes()[:buf.Len()/2])
			flusher.Flush()
		}
		abortConnection()
	}
	s.countFrame(rb, replayed, 1)
	if err := wire.WriteFrame(w, f); err != nil {
		s.countFrame(rb, replayed, -1)
		s.logf("session %s: write frame %d: %v", sess.id, seq, err)
		return err
	}
	flusher.Flush()
	s.metrics.blocksServed.Inc()
	s.metrics.tuplesServed.Add(int64(rb.tuples))
	s.metrics.pushFramesSent.Inc()
	s.metrics.blockSize.Observe(float64(rb.tuples))
	s.metrics.blockDelay.Observe(rb.delayMS)
	if replayed {
		s.metrics.blocksReplayed.Inc()
		s.metrics.pushFramesReplayed.Inc()
	}
	return nil
}

// countFrame adds n (+1, or -1 to take a failed write back) frames of
// rb to the Stats counters a reader reconciles against delivered blocks.
func (s *Server) countFrame(rb *replayBlock, replayed bool, n int64) {
	s.stats.blocksServed.Add(n)
	s.stats.tuplesServed.Add(n * int64(rb.tuples))
	s.stats.pushFramesSent.Add(n)
	if replayed {
		s.stats.blocksReplayed.Add(n)
		s.stats.pushFramesReplayed.Add(n)
	}
}

// writeErrorFrame terminates the stream with an in-band error. The
// session state is untouched: whatever was committed stays replayable.
func (s *Server) writeErrorFrame(w http.ResponseWriter, flusher http.Flusher, sess *session, cause error) {
	s.logf("session %s: push stream error: %v", sess.id, cause)
	f := wire.Frame{Type: wire.FrameError, Payload: []byte(cause.Error())}
	if err := wire.WriteFrame(w, f); err != nil {
		s.logf("session %s: write error frame: %v", sess.id, err)
		return
	}
	flusher.Flush()
}

// handleCredit serves POST /sessions/{id}/credit: the client's
// cumulative ack plus its current window and block-size grant.
func (s *Server) handleCredit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	ps := sess.push.Load()
	if ps == nil {
		httpError(w, http.StatusConflict, "session has no push stream")
		return
	}
	acked, err := pushQuery(r, "acked", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	window64, err := pushQuery(r, "window", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	size64, err := pushQuery(r, "size", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if size64 > uint64(s.cfg.MaxBlockSize) {
		httpError(w, http.StatusBadRequest, "size %d exceeds maximum %d", size64, s.cfg.MaxBlockSize)
		return
	}
	window := int(window64)
	if window > s.cfg.PushMaxWindow {
		window = s.cfg.PushMaxWindow
	}
	if !ps.grant(acked, window, int(size64)) {
		httpError(w, http.StatusConflict, "acked %d is ahead of production", acked)
		return
	}
	sess.touch()
	s.stats.pushCreditGrants.Add(1)
	s.metrics.pushCreditGrants.Inc()
	w.WriteHeader(http.StatusNoContent)
}
