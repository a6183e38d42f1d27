package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"wsopt/internal/blockcache"
	"wsopt/internal/minidb"
)

// The session protocol, server side (DESIGN.md §8). A session is one
// cursor whose blocks are named by number. The server retains the
// committed blocks its peer has not acknowledged — the tail — and every
// request places a block number against that window: the next number is
// produced fresh, a retained one is served again byte for byte, anything
// else is refused. Pull (/next) and push (/stream) are two framings of
// this one state machine: a pull is a stream of window 1 that carries one
// block per response and acks by asking for the next. Ingest and the
// gateway tier keep no tail of their own but speak the same request
// grammar and the same seq window, through ParseQuery and ClassifySeq.

// Query is the parsed query string of a session-protocol request. An
// absent key is zero.
type Query struct {
	// Size is the block size in tuples (`size`).
	Size int
	// Window is the credit window in blocks (`window`), already clamped to
	// Limits.MaxWindow.
	Window int
	// Seq names the block a pull or an upload is for (`seq`), From the
	// first block a stream open wants (`from`), Acked the newest block the
	// peer has durably consumed (`acked`).
	Seq, From, Acked uint64
	// Hold is a pull's promise to ask for the same size next (`hold=1`):
	// a tier may then read the next block ahead at that size.
	Hold bool
}

// Limits bounds a Query; a zero field bounds by the int range only.
type Limits struct {
	// MaxSize refuses a larger `size`; MaxWindow clamps a larger `window`
	// — the window is a hint, the cap is the server's memory protection.
	MaxSize, MaxWindow int
}

// ParseQuery is the one parser of the protocol's query grammar. A key
// that is present must be a decimal integer: at least 1 for size,
// window, seq and from, at least 0 for acked, and exactly 1 for hold.
// Every value is bounded before it is narrowed, so a window of 2^64-1 is
// clamped like any other instead of wrapping negative past the cap. needSize makes an absent
// size an error (the endpoints that produce a block).
func ParseQuery(v url.Values, lim Limits, needSize bool) (q Query, err error) {
	key := func(name string, min uint64) (n uint64) {
		s := v.Get(name)
		if s == "" || err != nil {
			return 0
		}
		n, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil || n < min {
			err = fmt.Errorf("%s must be an integer of at least %d", name, min)
		}
		return n
	}
	size, window := key("size", 1), key("window", 1)
	q.Seq, q.From, q.Acked = key("seq", 1), key("from", 1), key("acked", 0)
	if h := v.Get("hold"); h != "" && err == nil {
		if q.Hold = h == "1"; !q.Hold {
			err = errors.New("hold must be 1")
		}
	}
	if err != nil {
		return Query{}, err
	}
	if size == 0 && needSize {
		return Query{}, errors.New("size must be a positive integer")
	}
	if lim.MaxSize <= 0 {
		lim.MaxSize = math.MaxInt
	}
	if lim.MaxWindow <= 0 {
		lim.MaxWindow = math.MaxInt
	}
	if size > uint64(lim.MaxSize) {
		return Query{}, fmt.Errorf("size %d exceeds maximum %d", size, lim.MaxSize)
	}
	q.Size = int(size)
	q.Window = int(min(window, uint64(lim.MaxWindow)))
	return q, nil
}

// Encode is the one writer of the protocol's query grammar and the exact
// inverse of ParseQuery: a zero field is an absent key, and the keys
// come in ParseQuery's order whatever the request. Every tier that sends
// a session-protocol request builds its query string here, so a field
// added to Query exists on every path or fails the round-trip test.
func (q Query) Encode() string {
	b := make([]byte, 0, 64)
	key := func(name string, n uint64) {
		if n == 0 {
			return
		}
		if len(b) > 0 {
			b = append(b, '&')
		}
		b = strconv.AppendUint(append(append(b, name...), '='), n, 10)
	}
	key("size", uint64(max(q.Size, 0)))
	key("window", uint64(max(q.Window, 0)))
	key("seq", q.Seq)
	key("from", q.From)
	key("acked", q.Acked)
	if q.Hold {
		key("hold", 1)
	}
	return string(b)
}

// SeqClass is where a requested block number falls against a session's
// window.
type SeqClass int

const (
	// SeqFresh is the next block: produce (or apply) it.
	SeqFresh SeqClass = iota
	// SeqReplay is a retained block: serve the kept bytes again.
	SeqReplay
	// SeqOutside is neither — ahead of the next block, or behind the
	// oldest retained one, whose bytes are released (409).
	SeqOutside
	// SeqGone is the block after the last one of an exhausted result set
	// (410).
	SeqGone
	// The two remaining answers are tail.begin's own.
	seqClosed   // the session was deleted or expired under the request (404)
	seqPushMode // a pull on a session a stream drives (409)
)

// ClassifySeq is the protocol's one seq-window rule. The session's
// newest committed block is last, its retained window is [oldest, last]
// (a tier that keeps only the newest block passes oldest = last), and an
// absent seq (0) means the next block. It returns the resolved number
// with its class.
func ClassifySeq(seq, oldest, last uint64, done bool) (uint64, SeqClass) {
	if seq == 0 {
		seq = last + 1
	}
	switch {
	case seq == last+1 && done:
		return seq, SeqGone
	case seq == last+1:
		return seq, SeqFresh
	case oldest <= seq && seq <= last:
		return seq, SeqReplay
	default:
		return seq, SeqOutside
	}
}

// Refuse answers a request whose block cannot be served and reports
// whether it did; SeqFresh and SeqReplay are left to the caller.
func (c SeqClass) Refuse(w http.ResponseWriter, seq uint64) bool {
	switch c {
	case SeqFresh, SeqReplay:
		return false
	case SeqGone:
		httpError(w, http.StatusGone, "result set exhausted")
	case seqClosed:
		httpError(w, http.StatusNotFound, "no such session")
	case seqPushMode:
		httpError(w, http.StatusConflict, "session is in push-stream mode")
	default:
		httpError(w, http.StatusConflict, "seq %d outside the replay window", seq)
	}
	return true
}

// tailFrame is one committed-but-unacked block; the tail holds one
// reference to rb for as long as the frame is retained, and a stream's
// tail charges its bytes what retaining rb pins (Entry.Pinned). delayMS
// is the delay the commit priced: a cached block is shared across
// sessions, its price is this commit's.
type tailFrame struct {
	seq     uint64
	rb      *blockcache.Entry
	delayMS float64
	charge  int
}

// tail is a session's protocol state: the retained frames and the
// counters that bound them. Ownership is one rule: the tail holds one
// reference per retained frame until the frame is acked or the tail
// closes; whoever writes a block to a peer holds one more for the
// duration of the write; the replication log holds its own.
//
// The tail has its own small mutex because credit grants and close
// arrive without sess.mu, which a producer holds through the priced
// delay. Lock order: sess.mu before tail.mu, never the reverse; nobody
// sleeps holding tail.mu.
type tail struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; wakes a producer parked on credit

	// frames are the blocks in (acked, produced], ascending. The slice is
	// reused: a pull session cycles one slot and never allocates here.
	frames []tailFrame
	// acked is the peer's cumulative ack, produced the newest committed
	// block, done whether that block ended the result set.
	acked, produced uint64
	done            bool
	// closed flips when the session is deleted or expires. Nothing is
	// recorded or replicated afterwards.
	closed bool

	// gen, size and window exist for streams only; gen == 0 is a pull
	// session. Opening a stream bumps gen, and a producer of an older
	// generation stops at its next check, so at most one stream drives the
	// session and a reconnect takes over cleanly. size and window are the
	// peer's latest grant: produce blocks of size tuples while fewer than
	// window blocks are committed past acked.
	gen          uint64
	size, window int
	// bytes is what the frames a stream committed pin, charged at commit
	// and credited at ack or close; the producer waits while it is at
	// budget. retained, the server's sum of every tail's bytes, moves with
	// it (Stats.PushRetainedBytes).
	bytes, budget int
	retained      *atomic.Int64

	// ahead are a pull's read-ahead slots: up to aheadDepth blocks after
	// produced, prepared but not committed, so they have no number yet.
	// aheadN of them are in use, oldest first from ahead[aheadAt]; those
	// two indices belong to the handler, which holds sess.mu. Each slot's
	// block is the tail's until a request takes it or close releases it.
	ahead           [aheadDepth]aheadSlot
	aheadAt, aheadN int
}

// aheadDepth is the most blocks a pull keeps prepared: a pull that
// promises its size (hold) keeps this many, one that repeats it keeps
// one (handleNext).
const aheadDepth = 2

// aheadSlot is one block a pull's read-ahead prepares. The handler, under
// sess.mu, fills in where the block is and what it holds — a cache hit
// is ready at once; otherwise its rows are copied into rows, which the
// slot owns, and encode runs on a goroutine of its own, off the lock.
// Neither side touches those fields while the other may: the handler
// writes them before it starts the encode and again only after ready
// has said the encode ended.
type aheadSlot struct {
	srv  *Server
	sess *session
	// run is encode and fill is fillCache, each bound once per slot:
	// `go sl.encode()` would allocate a closure per block.
	run  func()
	fill func() (*blockcache.Entry, error)
	// ready receives once per encode, when its block is published.
	ready chan struct{}

	schema minidb.Schema
	key    blockcache.Key
	rows   []minidb.Row
	tuples int
	done   bool
	// encoding is true from the encode's start until the handler has
	// received its ready.
	encoding bool
	// rb is the prepared block and its one reference: nil while it is
	// encoded, after a failed encode, or once close released it. Guarded
	// by tail.mu.
	rb *blockcache.Entry
}

// publish hands the tail a prepared block and its reference; a tail
// closed since is not going to serve it, so it is released at once.
func (t *tail) publish(sl *aheadSlot, rb *blockcache.Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		if rb != nil {
			rb.Release()
		}
		return
	}
	sl.rb = rb
}

// popAhead takes the oldest read-ahead slot out once its encode has
// ended and hands its block, if it has one, and the tail's reference to
// the caller, who holds sess.mu: no other block can be prepared
// meanwhile. The wait holds sess.mu as the encode it stands for once
// did; neither the encode nor close takes sess.mu.
func (t *tail) popAhead() *blockcache.Entry {
	sl := &t.ahead[t.aheadAt]
	if sl.encoding {
		<-sl.ready
		sl.encoding = false
	}
	t.aheadAt, t.aheadN = (t.aheadAt+1)%aheadDepth, t.aheadN-1
	t.mu.Lock()
	defer t.mu.Unlock()
	rb := sl.rb
	sl.rb = nil
	return rb
}

// begin admits a request that names block seq (0 = the next one): a pull
// (open == nil) or a stream open carrying its first grant. Naming a
// block acks everything before it — that is all a pull's ack is. A
// stream open also takes the session over from any older stream. The
// retained frames from seq on come back with one write reference each:
// none for a fresh block, exactly one for a pull's replay. Caller holds
// sess.mu, so no block commits between this and what the caller does
// next.
func (t *tail) begin(seq uint64, open *Query) (uint64, SeqClass, []tailFrame, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.closed:
		return seq, seqClosed, nil, 0
	case open == nil && t.gen != 0:
		return seq, seqPushMode, nil, 0
	}
	seq, class := ClassifySeq(seq, t.acked+1, t.produced, t.done)
	if class != SeqFresh && class != SeqReplay {
		return seq, class, nil, 0
	}
	t.ackLocked(seq - 1)
	if open != nil {
		t.gen++
		t.size, t.window = open.Size, open.Window
		t.cond.Broadcast()
	}
	replays := slices.Clone(t.frames)
	for _, f := range replays {
		f.rb.Retain()
	}
	return seq, class, replays, t.gen
}

// ackLocked applies a cumulative ack: a stale or repeated one can never
// un-ack, and every frame it covers gives up the tail's reference.
func (t *tail) ackLocked(acked uint64) {
	if acked <= t.acked {
		return
	}
	t.acked = acked
	n, credit := 0, 0
	for n < len(t.frames) && t.frames[n].seq <= acked {
		credit += t.frames[n].charge
		t.frames[n].rb.Release()
		n++
	}
	t.charge(-credit)
	kept := copy(t.frames, t.frames[n:])
	clear(t.frames[kept:])
	t.frames = t.frames[:kept]
}

// charge moves the tail's retained bytes, and the server's sum with them.
func (t *tail) charge(n int) {
	t.bytes += n
	t.retained.Add(int64(n))
}

var (
	errNoStream = errors.New("session has no push stream")
	errAckAhead = errors.New("ack is ahead of production")
)

// grant applies a credit update from the side channel; a zero window or
// size keeps the current value.
func (t *tail) grant(q Query) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.gen == 0:
		return errNoStream
	case q.Acked > t.produced:
		return errAckAhead
	}
	t.ackLocked(q.Acked)
	if q.Window > 0 {
		t.window = q.Window
	}
	if q.Size > 0 {
		t.size = q.Size
	}
	t.cond.Broadcast()
	return nil
}

// close ends the protocol: every retained frame and every prepared block
// are released and a parked producer wakes. An encode still running is
// not waited for: it publishes into the closed tail, which releases its
// block at once. Called from the delete and expiry paths without
// sess.mu. The caller ships OpClose after it returns; commits take the
// same mutex, so no commit record can follow the close record. It
// reports whether the result set was complete by then.
func (t *tail) close() (done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.ackLocked(t.produced)
	for i := range t.ahead {
		if sl := &t.ahead[i]; sl.rb != nil {
			sl.rb.Release()
			sl.rb = nil
		}
	}
	t.cond.Broadcast()
	return t.done
}

// live reports whether gen is still the stream that drives the session.
func (t *tail) live(gen uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen == gen && !t.closed
}

// Why a producer's credit wait ended without credit.
var (
	errTailClosed   = errors.New("session closed")
	errTailTakeover = errors.New("a newer stream took over the session")
	errTailDone     = errors.New("result set complete")
)

// waitCredit blocks until the window has room (returning the granted
// block size), the result set is complete, the session closes, a newer
// generation takes over, or the stream's context dies. The window has
// room while fewer than window frames are unacked and their bytes are
// under budget; nothing retained is 0 bytes, so one frame always flows.
// onStall fires
// once, before the first actual block on an exhausted window, so the
// backpressure signal is visible while the producer is still parked. The
// caller must have arranged for ctx's cancellation to broadcast t.cond
// (context.AfterFunc), or the wait could sleep past a dead connection.
func (t *tail) waitCredit(ctx context.Context, gen uint64, onStall func()) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for stalled := false; ; t.cond.Wait() {
		switch {
		case t.closed:
			return 0, errTailClosed
		case t.gen != gen:
			return 0, errTailTakeover
		case ctx.Err() != nil:
			return 0, ctx.Err()
		case t.done:
			// The done frame is committed: written already, or in the tail
			// a replay just covered. Checked before the window, which that
			// unacked frame may be filling.
			return 0, errTailDone
		case t.produced < t.acked+uint64(t.window) && t.bytes < t.budget:
			return t.size, nil
		}
		if !stalled {
			stalled = true
			onStall()
		}
	}
}
