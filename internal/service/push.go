package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"wsopt/internal/wire"
)

// The stream framing of the session protocol (DESIGN.md §8). A client
// opens a long-lived stream
//
//	POST /sessions/{id}/stream?size=N&window=W&from=S
//
// (with the JSON query of POST /sessions as its body when the session is
// one the client named and the server has yet to create — handleStream)
// and the server frames encoded blocks onto the chunked response
// continuously, keeping up to `window` committed-but-unacked blocks in
// flight. The client grants credits on a side channel
//
//	POST /sessions/{id}/credit?acked=A&window=W&size=N
//
// where `acked` is the cumulative highest block sequence the client has
// durably consumed. Everything else — block numbers, the retained tail,
// commit points, pricing, replication, the function that writes a block —
// is the protocol's (protocol.go, service.go) and shared with /next: what
// lives here is the stream's lifetime, its credit wait and its in-band
// error frame.

// Push transport defaults, exported for flag tables and docs.
const (
	// DefaultPushMaxWindow caps the credit window absent configuration.
	// It bounds bookkeeping only: what a window of frames may pin is
	// bounded in bytes (pushBudget).
	DefaultPushMaxWindow = 1024
	// DefaultPushMaxFrameBytes caps one frame's encoded payload.
	DefaultPushMaxFrameBytes = 8 << 20
)

// pushBudget is the bytes a stream's unacked frames may pin before its
// producer waits for an ack: room for the largest frame being read and
// the next one in flight. A frame that finds room is committed whole, so
// a tail pins at most the budget plus one frame.
func (s *Server) pushBudget() int { return 2 * s.cfg.PushMaxFrameBytes }

// validSessionName is the rule for a name a client picks: "c" and 32
// lower-case hex digits — 128 random bits, and a namespace the server's
// own s%08x ids (and the gateway's g%08x) never enter.
func validSessionName(id string) bool {
	return len(id) == 33 && id[0] == 'c' && strings.Trim(id[1:], "0123456789abcdef") == ""
}

// handleStream serves POST /sessions/{id}/stream: the long-lived
// chunked response framing blocks continuously under credit control.
// An open that names a session the server does not know and carries the
// JSON query POST /sessions takes creates that session first, under the
// client's name: a retried open whose 200 was lost finds the session (its
// body is not read) and is replayed the retained frames, so the open is
// idempotent and costs a push query no round trip of its own.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessions.get(id)
	switch {
	case ok:
	case r.ContentLength == 0:
		httpError(w, http.StatusNotFound, "no such session")
		return
	case !validSessionName(id):
		httpError(w, http.StatusBadRequest, "a session named by its client is c and 32 lower-case hex digits")
		return
	}
	// The open's window is parsed unbounded (but for the int range) and
	// cut here, so that a cut is counted; the cap goes out on the 200.
	q, err := ParseQuery(r.URL.Query(), Limits{MaxSize: s.limits.MaxSize}, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	clamped := q.Window > s.limits.MaxWindow
	q.Window = max(min(q.Window, s.limits.MaxWindow), 1)
	if _, ok := w.(http.Flusher); !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	if fault := s.faults.decide(id); fault == fault503 {
		// Refused before any session state is touched or, on a creating
		// open, exists: a clean retry. (The name's fault stream is kept for
		// that retry; forgetting it would draw the same refusal again.)
		s.countFault(fault)
		httpError(w, http.StatusServiceUnavailable, "injected fault: service unavailable")
		return
	}
	if !ok {
		if sess, ok = s.createSession(w, r, id); !ok {
			return
		}
	}

	sess.touch()
	t := &sess.tail
	sess.mu.Lock()
	from, class, replays, gen := t.begin(q.From, &q)
	sess.mu.Unlock()
	if class.Refuse(w, from) {
		return
	}
	// Whatever part of the tail is not served below (a failed write, an
	// injected fault's panic) still gives its write reference back.
	defer func() {
		for _, f := range replays {
			f.rb.Release()
		}
	}()

	s.stats.pushStreamsOpened.Add(1)
	if clamped {
		s.stats.pushWindowClamped.Add(1)
	}
	s.logf("session %s: push stream opened (gen %d, from %d, size %d, window %d)", sess.id, gen, from, q.Size, q.Window)

	// Cancellation must wake a producer parked on t.cond: the connection
	// dying is otherwise invisible to a Wait.
	stopWake := context.AfterFunc(r.Context(), func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer stopWake()

	w.Header()["Content-Type"] = frameContentType
	w.Header().Set(HeaderPushWindow, strconv.Itoa(s.limits.MaxWindow))
	w.Header().Set(HeaderPushWindowBytes, strconv.Itoa(s.pushBudget()))
	cols, _ := json.Marshal(sess.columns) // a []string always marshals
	w.Header().Set(HeaderSessionColumns, string(cols))
	w.WriteHeader(http.StatusOK)

	// Replay the retained tail past the client's ack first; a reconnect
	// resumes mid-result-set without touching the iterator.
	for len(replays) > 0 {
		f := replays[0]
		replays = replays[1:]
		if s.serveBlock(w, sess, framing{stream: true}, f, true, s.faults.decide(sess.id)) != nil {
			return
		}
	}

	// Then the serve loop: wait for credit, produce one block through the
	// shared produce path, frame and flush it.
	for {
		size, err := t.waitCredit(r.Context(), gen, func() { s.stats.pushCreditStalls.Add(1) })
		if err != nil {
			// errTailDone is the orderly end: chunked EOF after the done
			// frame, so the client drains to EOF and the connection goes
			// back to its keep-alive pool.
			s.logf("session %s: push stream ends: %v", sess.id, err)
			return
		}
		sess.touch()
		sess.mu.Lock()
		if !t.live(gen) {
			// Closed, or a reconnect took over between the credit wait and
			// the session lock; producing here would skip its replay window.
			sess.mu.Unlock()
			return
		}
		f, err := s.produceBlockLocked(r.Context(), sess, size)
		sess.mu.Unlock()
		if err == errProduceCancelled {
			return
		}
		if err != nil {
			s.writeErrorFrame(w, sess, err)
			return
		}
		if s.serveBlock(w, sess, framing{stream: true}, f, false, s.faults.decide(sess.id)) != nil {
			return
		}
	}
}

// writeErrorFrame terminates the stream with an in-band error. The
// session state is untouched: whatever was committed stays replayable.
func (s *Server) writeErrorFrame(w http.ResponseWriter, sess *session, cause error) {
	s.logf("session %s: push stream error: %v", sess.id, cause)
	f := wire.Frame{Type: wire.FrameError, Payload: []byte(cause.Error())}
	if err := wire.WriteFrame(w, f); err != nil {
		s.logf("session %s: write error frame: %v", sess.id, err)
		return
	}
	_ = http.NewResponseController(w).Flush()
}

// handleCredit serves POST /sessions/{id}/credit: the client's
// cumulative ack plus its current window and block-size grant.
func (s *Server) handleCredit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	q, err := ParseQuery(r.URL.Query(), s.limits, false)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := sess.tail.grant(q); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	sess.touch()
	s.stats.pushCreditGrants.Add(1)
	w.WriteHeader(http.StatusNoContent)
}
