// Package replica is the async log-shipping channel that makes session
// state survive process death. Each wsblockd backend appends a record to
// an in-memory ring log on every session mutation — create, block
// commit, close — carrying the committed cursor, the last-acked sequence
// number, and the encoded payload of the committed block (the bytes a
// same-seq retry needs). A follower (the wsgate tier) pulls the log over
// HTTP by LSN and applies it into a standby Store, so when the primary
// dies mid-transfer the gateway can promote a follower backend and serve
// the in-flight block verbatim with zero duplicate or lost tuples.
//
// The design follows the shape of small log-shipping replicators
// (append-only LSN-ordered log, pull-based resumable shipping, explicit
// lag accounting) rather than consensus: the log is a bounded ring, a
// follower that falls behind the retention window observes the gap and
// degrades gracefully (the gateway falls back to cursor-resume), and
// replication lag — in records and in milliseconds — is a first-class
// measurement the gateway exports.
package replica

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Op is the kind of a replication record.
type Op uint8

const (
	// OpCreate announces a new session: id, the query body it was opened
	// with, and the starting cursor (the create offset).
	OpCreate Op = iota + 1
	// OpCommit announces a committed block: the last-acked seq, the
	// committed absolute cursor after it, and the encoded payload a
	// same-seq retry needs.
	OpCommit
	// OpClose announces an orderly session close or expiry.
	OpClose
)

// String returns the record kind for logs and tests.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpCommit:
		return "commit"
	case OpClose:
		return "close"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Ref counts the references to a record's payload: Retain adds one, and
// Release drops one, recycling the payload's buffer with the last. The
// service's retained block (blockcache.Entry) is one.
type Ref interface {
	Retain()
	Release()
}

// Record is one replication log entry. Payload may alias a pooled server
// buffer: the log owns a reference to it (Ref) from Append until the
// record is evicted, and Read takes a further reference (Ref.Retain) on
// each payload it hands out, so consumers never observe a reused buffer
// and no payload byte is copied on the primary.
type Record struct {
	// LSN is the log sequence number, assigned by Log.Append.
	LSN uint64
	// Op is the mutation kind.
	Op Op
	// Session is the primary's session id.
	Session string
	// Query is the session's create request body (OpCreate only), so a
	// follower can reconstruct the plan without ever having seen it.
	Query json.RawMessage
	// Seq is the last-acked block sequence number (OpCommit).
	Seq uint64
	// Committed is the absolute tuple cursor after block Seq: create
	// offset plus every tuple served through Seq (OpCreate carries the
	// starting offset here).
	Committed int64
	// Tuples is the tuple count of block Seq (OpCommit).
	Tuples int
	// Done marks block Seq as the final block (OpCommit).
	Done bool
	// Codec names the wire codec the payload is encoded with.
	Codec string
	// Payload is the committed block's encoded bytes (OpCommit), the
	// replay a same-seq retry needs after the primary dies. In a batch
	// from Log.Read or the feed, only the last commit of each session
	// carries it (see Read).
	Payload []byte
	// ShippedUnixNano is when the primary appended the record; the
	// follower's apply time minus this is the per-record replication lag.
	ShippedUnixNano int64

	// Ref, when non-nil, holds the reference to Payload that Append
	// hands the log: its Release is called exactly once when the log no
	// longer references Payload (eviction or Close), so the service can
	// recycle a committed block's buffer only once no record names it.
	// Read takes one more (Retain) to hold a payload past its record's
	// eviction. It is not shipped.
	Ref Ref
}

// Log is the primary-side bounded replication log: an LSN-ordered ring
// of the most recent records. Append is called on the block hot path
// (under the session lock) and takes only the log's own mutex; Read is
// the feed's pull path and holds that mutex only to copy record headers
// and retain payload references — never while payload bytes move. Safe
// for concurrent use.
type Log struct {
	// boot identifies this Log instantiation (one primary process life).
	// The log is in-memory: a restarted primary starts a fresh log whose
	// LSNs restart at 1 — and its session-id counter restarts with it, so
	// the same session id can name an unrelated session across the
	// restart. The boot id rides on every feed response; a follower that
	// sees it change knows its cursor AND its standby state are stale.
	boot string

	mu   sync.Mutex
	recs []Record // ring buffer, recs[i] holds LSN first+i
	head int      // index of the oldest record
	n    int      // live records
	next uint64   // LSN the next Append will get (first LSN is 1)

	appended uint64
	evicted  uint64
	closed   bool
}

// newBootID returns a process-unique log identity. Collisions across
// restarts are the only thing that matters; the wall-clock fallback is
// good enough when the random source fails.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// NewLog builds a log retaining up to capacity records (minimum 16,
// default 1024 when capacity <= 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	if capacity < 16 {
		capacity = 16
	}
	return &Log{boot: newBootID(), recs: make([]Record, capacity), next: 1}
}

// Boot returns the log's boot id, unique per Log instantiation.
func (l *Log) Boot() string { return l.boot }

// Append assigns the next LSN to rec, stores it, and evicts (and
// releases) the oldest record when the ring is full. It returns the
// assigned LSN. Appending to a closed log releases rec immediately and
// returns 0.
func (l *Log) Append(rec Record) uint64 {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		if rec.Ref != nil {
			rec.Ref.Release()
		}
		return 0
	}
	if rec.ShippedUnixNano == 0 {
		rec.ShippedUnixNano = time.Now().UnixNano()
	}
	rec.LSN = l.next
	l.next++
	l.appended++
	var evict Ref
	if l.n == len(l.recs) {
		old := &l.recs[l.head]
		evict = old.Ref
		*old = rec
		l.head = (l.head + 1) % len(l.recs)
		l.evicted++
	} else {
		l.recs[(l.head+l.n)%len(l.recs)] = rec
		l.n++
	}
	l.mu.Unlock()
	// The evicted record's buffer reference is dropped outside the lock:
	// Release may return a pooled buffer and must not run under l.mu.
	if evict != nil {
		evict.Release()
	}
	return rec.LSN
}

// FirstLSN returns the oldest retained LSN (0 when the log is empty).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.next - uint64(l.n)
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// feedBatchBytes bounds the payload and query bytes of one Read batch
// (which still holds at least one record), so a follower that lags a
// deep log drains it in bounded responses.
const feedBatchBytes = 8 << 20

// Read returns up to max records with LSN >= from, in LSN order,
// together with the log's first retained LSN and the next LSN to ask
// for. The batch is coalesced: of a session's commits in it, only the
// last carries its Payload — a follower keeps only the latest block per
// session, so applying the batch whole (Store.Apply) leaves exactly the
// state the un-coalesced records would — and it ends early once the
// bytes it still carries reach feedBatchBytes.
//
// Payloads are not copied: Read retains each one it returns while the
// lock still pins its record in the ring, and the caller must call
// release exactly once when done with the bytes. A from below the
// retention window silently starts at the window (the caller detects
// the gap by comparing from with first).
func (l *Log) Read(from uint64, max int) (recs []Record, first, next uint64, release func()) {
	if max <= 0 {
		max = 256
	}
	l.mu.Lock()
	next = l.next
	if l.n == 0 {
		l.mu.Unlock()
		return nil, 0, next, func() {}
	}
	first = l.next - uint64(l.n)
	start := from
	if start < first {
		start = first
	}
	carrier := make(map[string]int) // session → index in recs of its payload-carrying commit
	size := 0
	for lsn := start; lsn < l.next && len(recs) < max; lsn++ {
		r := l.recs[(l.head+int(lsn-first))%len(l.recs)]
		grown := size + len(r.Payload) + len(r.Query)
		prev, coalesce := carrier[r.Session]
		if r.Op == OpCommit && coalesce {
			grown -= len(recs[prev].Payload)
		}
		if len(recs) > 0 && grown > feedBatchBytes {
			break
		}
		if r.Op == OpCommit {
			if coalesce {
				recs[prev].Payload, recs[prev].Ref = nil, nil
			}
			carrier[r.Session] = len(recs)
		}
		size = grown
		recs = append(recs, r)
	}
	var held []Ref
	for i := range recs {
		r := &recs[i]
		if r.Ref != nil {
			r.Ref.Retain()
			held = append(held, r.Ref)
		}
		r.Ref = nil
	}
	l.mu.Unlock()
	return recs, first, next, func() {
		for _, ref := range held {
			ref.Release()
		}
	}
}

// Stats reports append/evict totals for metrics.
func (l *Log) Stats() (appended, evicted uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended, l.evicted
}

// Close releases every retained record's buffer reference and rejects
// further appends. Idempotent.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	var rel []Ref
	for i := 0; i < l.n; i++ {
		r := &l.recs[(l.head+i)%len(l.recs)]
		if r.Ref != nil {
			rel = append(rel, r.Ref)
			r.Ref = nil
		}
		r.Payload = nil
	}
	l.n = 0
	l.mu.Unlock()
	for _, ref := range rel {
		ref.Release()
	}
}
