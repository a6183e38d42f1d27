package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// funcRef is a Ref made of two functions, either of which may be nil.
type funcRef struct{ retain, release func() }

func (r funcRef) Retain() {
	if r.retain != nil {
		r.retain()
	}
}

func (r funcRef) Release() {
	if r.release != nil {
		r.release()
	}
}

func TestLogAppendAssignsSequentialLSNs(t *testing.T) {
	l := NewLog(16)
	for i := 1; i <= 5; i++ {
		lsn := l.Append(Record{Op: OpCommit, Session: "s"})
		if lsn != uint64(i) {
			t.Fatalf("append %d: lsn = %d", i, lsn)
		}
	}
	if got := l.FirstLSN(); got != 1 {
		t.Fatalf("FirstLSN = %d, want 1", got)
	}
	if got := l.NextLSN(); got != 6 {
		t.Fatalf("NextLSN = %d, want 6", got)
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
}

func TestLogEvictionReleasesOldestExactlyOnce(t *testing.T) {
	l := NewLog(16)
	released := make(map[int]int)
	var mu sync.Mutex
	for i := 0; i < 40; i++ {
		i := i
		l.Append(Record{Op: OpCommit, Session: "s", Ref: funcRef{release: func() {
			mu.Lock()
			released[i]++
			mu.Unlock()
		}}})
	}
	// Capacity 16, 40 appends: records 0..23 must have been evicted and
	// released exactly once; 24..39 are still retained.
	mu.Lock()
	for i := 0; i < 24; i++ {
		if released[i] != 1 {
			t.Fatalf("record %d released %d times, want 1", i, released[i])
		}
	}
	for i := 24; i < 40; i++ {
		if released[i] != 0 {
			t.Fatalf("record %d released before eviction", i)
		}
	}
	mu.Unlock()
	appended, evicted := l.Stats()
	if appended != 40 || evicted != 24 {
		t.Fatalf("stats = (%d, %d), want (40, 24)", appended, evicted)
	}
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	for i := 24; i < 40; i++ {
		if released[i] != 1 {
			t.Fatalf("record %d released %d times after Close, want 1", i, released[i])
		}
	}
}

func TestLogAppendAfterCloseReleasesImmediately(t *testing.T) {
	l := NewLog(16)
	l.Close()
	var released bool
	if lsn := l.Append(Record{Ref: funcRef{release: func() { released = true }}}); lsn != 0 {
		t.Fatalf("append after close returned lsn %d, want 0", lsn)
	}
	if !released {
		t.Fatal("append after close did not release the record")
	}
	l.Close() // idempotent
}

// TestLogReadRetainsPayloads pins Read's ownership contract: a payload is
// handed out by reference, never copied, and the reference Read takes
// under the lock keeps the buffer out of its pool until the caller's
// release — even when the record is evicted in between.
func TestLogReadRetainsPayloads(t *testing.T) {
	l := NewLog(16)
	buf := []byte("block-1-bytes")
	refs := 1 // the log's own reference, handed over by Append
	var mu sync.Mutex
	add := func(d int) func() {
		return func() {
			mu.Lock()
			refs += d
			if refs == 0 {
				// Last reference gone: the owner recycles the buffer.
				copy(buf, "XXXXXXXXXXXXX")
			}
			mu.Unlock()
		}
	}
	l.Append(Record{Op: OpCommit, Session: "s", Seq: 1, Payload: buf, Ref: funcRef{add(+1), add(-1)}})
	recs, first, next, release := l.Read(1, 10)
	if len(recs) != 1 || first != 1 || next != 2 {
		t.Fatalf("Read = %d recs, first %d, next %d", len(recs), first, next)
	}
	if &recs[0].Payload[0] != &buf[0] {
		t.Fatal("Read copied the payload")
	}
	if recs[0].Ref != nil {
		t.Fatal("Read leaked a refcount hook")
	}
	// Evict the record while the read is outstanding.
	for i := 0; i < 16; i++ {
		l.Append(Record{Op: OpClose, Session: "filler"})
	}
	if got := string(recs[0].Payload); got != "block-1-bytes" {
		t.Fatalf("payload recycled while a read still held it: %q", got)
	}
	release()
	mu.Lock()
	defer mu.Unlock()
	if refs != 0 || string(buf) != "XXXXXXXXXXXXX" {
		t.Fatalf("after eviction and release: refs = %d, buffer %q; want 0 and recycled", refs, buf)
	}
}

// TestLogReadCoalescesAndBoundsBatches pins the batch contract: of one
// session's commits in a batch only the last carries its payload, every
// record is still shipped, and a batch ends once the bytes it carries
// reach the budget — but never before its first record.
func TestLogReadCoalescesAndBoundsBatches(t *testing.T) {
	l := NewLog(64)
	l.Append(Record{Op: OpCreate, Session: "a", Query: json.RawMessage(`{}`)})
	for i := 1; i <= 3; i++ {
		l.Append(Record{Op: OpCommit, Session: "a", Seq: uint64(i), Payload: []byte{byte(i)}})
		l.Append(Record{Op: OpCommit, Session: "b", Seq: uint64(i), Payload: []byte{byte(10 * i)}})
	}
	l.Append(Record{Op: OpClose, Session: "a"})
	recs, _, _, release := l.Read(1, 100)
	release()
	if len(recs) != 8 {
		t.Fatalf("batch has %d records, want all 8", len(recs))
	}
	for _, r := range recs {
		want := r.Op == OpCommit && r.Seq == 3
		if (r.Payload != nil) != want {
			t.Fatalf("lsn %d (%s %s seq %d): payload present = %v, want %v", r.LSN, r.Op, r.Session, r.Seq, r.Payload != nil, want)
		}
	}
	// A batch cut short by max coalesces over what it holds, not the log.
	recs, _, _, release = l.Read(1, 3) // create a, commit a/1, commit b/1
	release()
	if len(recs) != 3 || recs[1].Payload == nil || recs[2].Payload == nil {
		t.Fatalf("short batch dropped a payload it is the last carrier of: %+v", recs)
	}

	// Byte budget: distinct sessions, so nothing coalesces away.
	big := NewLog(64)
	half := make([]byte, feedBatchBytes/2+1)
	for i := 0; i < 3; i++ {
		big.Append(Record{Op: OpCommit, Session: fmt.Sprintf("s%d", i), Seq: 1, Payload: half})
	}
	recs, _, next, release := big.Read(1, 100)
	release()
	if len(recs) != 1 || next != 4 {
		t.Fatalf("budgeted batch = %d records, next %d; want 1 record and next 4 (more retained)", len(recs), next)
	}
	over := NewLog(16)
	over.Append(Record{Op: OpCommit, Session: "s", Seq: 1, Payload: make([]byte, feedBatchBytes+1)})
	if recs, _, _, release = over.Read(1, 100); len(recs) != 1 {
		t.Fatalf("a record over the budget must still ship alone; got %d records", len(recs))
	}
	release()
	// The budget counts what a batch still carries: one session's three
	// commits of the same size coalesce to one payload and ship together.
	same := NewLog(16)
	for i := 1; i <= 3; i++ {
		same.Append(Record{Op: OpCommit, Session: "s", Seq: uint64(i), Payload: half})
	}
	recs, _, _, release = same.Read(1, 100)
	release()
	if len(recs) != 3 || recs[2].Payload == nil {
		t.Fatalf("coalesced batch = %d records, want 3 with the last carrying the payload", len(recs))
	}
}

func TestLogReadClampsBelowRetention(t *testing.T) {
	l := NewLog(16)
	for i := 0; i < 40; i++ {
		l.Append(Record{Op: OpCommit, Session: "s", Seq: uint64(i + 1)})
	}
	recs, first, next, release := l.Read(1, 100)
	release()
	if first != 25 {
		t.Fatalf("first = %d, want 25 (oldest retained)", first)
	}
	if next != 41 {
		t.Fatalf("next = %d, want 41", next)
	}
	if len(recs) != 16 {
		t.Fatalf("len(recs) = %d, want 16", len(recs))
	}
	if recs[0].LSN != 25 || recs[15].LSN != 40 {
		t.Fatalf("recs span %d..%d, want 25..40", recs[0].LSN, recs[15].LSN)
	}
}

func TestFeedHandlerRoundTrip(t *testing.T) {
	l := NewLog(64)
	q := json.RawMessage(`{"table":"t"}`)
	l.Append(Record{Op: OpCreate, Session: "sess-1", Query: q, Committed: 100})
	l.Append(Record{Op: OpCommit, Session: "sess-1", Seq: 1, Committed: 150, Tuples: 50, Codec: "binary", Payload: []byte{1, 2, 3}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replication/feed" {
			http.NotFound(w, r)
			return
		}
		FeedHandler(l)(w, r)
	}))
	defer srv.Close()

	st := NewStore(0)
	p := &Puller{URL: srv.URL, Store: st}
	n, err := p.PollOnce(context.Background())
	if err != nil {
		t.Fatalf("PollOnce: %v", err)
	}
	if n != 2 {
		t.Fatalf("applied %d records, want 2", n)
	}
	if lag := p.Lag(); lag != 0 {
		t.Fatalf("lag = %d after full drain, want 0", lag)
	}
	ss, ok := st.Get("sess-1")
	if !ok {
		t.Fatal("session missing from store")
	}
	if ss.Seq != 1 || ss.Committed != 150 || ss.Tuples != 50 || ss.Codec != "binary" {
		t.Fatalf("state = %+v", ss)
	}
	if string(ss.Payload) != "\x01\x02\x03" {
		t.Fatalf("payload = %v", ss.Payload)
	}
	if string(ss.Query) != `{"table":"t"}` {
		t.Fatalf("query = %s", ss.Query)
	}

	// A close record removes the session.
	l.Append(Record{Op: OpClose, Session: "sess-1"})
	if _, err := p.PollOnce(context.Background()); err != nil {
		t.Fatalf("PollOnce: %v", err)
	}
	if _, ok := st.Get("sess-1"); ok {
		t.Fatal("session survived close record")
	}
	if st.Applied() != 3 {
		t.Fatalf("applied = %d, want 3", st.Applied())
	}
}

func TestFeedHandlerRejectsBadParams(t *testing.T) {
	h := FeedHandler(NewLog(16))
	for _, q := range []string{"from=abc", "max=0", "max=-1", "max=x"} {
		req := httptest.NewRequest(http.MethodGet, "/replication/feed?"+q, nil)
		rw := httptest.NewRecorder()
		h(rw, req)
		if rw.Code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, rw.Code)
		}
	}
}

func TestPullerDetectsRetentionGap(t *testing.T) {
	l := NewLog(16)
	for i := 0; i < 40; i++ {
		l.Append(Record{Op: OpCommit, Session: "s", Seq: uint64(i + 1)})
	}
	srv := httptest.NewServer(FeedHandler(l))
	defer srv.Close()
	st := NewStore(0)
	p := &Puller{URL: srv.URL, Store: st}
	// Cursor 1 but retention starts at 25: 24 records were lost.
	if _, err := p.PollOnce(context.Background()); err != nil {
		t.Fatalf("PollOnce: %v", err)
	}
	if got := st.Lost(); got != 24 {
		t.Fatalf("lost = %d, want 24", got)
	}
	if got := p.Cursor(); got != 41 {
		t.Fatalf("cursor = %d, want 41", got)
	}
}

func TestPullerLagCountsPendingRecords(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 10; i++ {
		l.Append(Record{Op: OpCommit, Session: "s", Seq: uint64(i + 1)})
	}
	srv := httptest.NewServer(FeedHandler(l))
	defer srv.Close()
	st := NewStore(0)
	p := &Puller{URL: srv.URL, Store: st, Batch: 4}
	if n, err := p.PollOnce(context.Background()); err != nil || n != 4 {
		t.Fatalf("PollOnce = (%d, %v), want (4, nil)", n, err)
	}
	if got := p.Lag(); got != 6 {
		t.Fatalf("lag = %d, want 6", got)
	}
	// Drain the rest.
	for p.Lag() > 0 {
		if _, err := p.PollOnce(context.Background()); err != nil {
			t.Fatalf("PollOnce: %v", err)
		}
	}
	if got := st.Applied(); got != 10 {
		t.Fatalf("applied = %d, want 10", got)
	}
}

func TestPullerRunDrainsAndStops(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 30; i++ {
		l.Append(Record{Op: OpCommit, Session: fmt.Sprintf("s%d", i%3), Seq: uint64(i + 1)})
	}
	srv := httptest.NewServer(FeedHandler(l))
	defer srv.Close()
	st := NewStore(0)
	p := &Puller{URL: srv.URL, Store: st, Batch: 8, Interval: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	deadline := time.After(5 * time.Second)
	for st.Applied() < 30 {
		select {
		case <-deadline:
			t.Fatalf("timed out: applied %d/30", st.Applied())
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("Run did not stop after cancel")
	}
}

// TestPullerRecoversFromPrimaryRestart is the regression test for the
// wedged-cursor bug: a restarted primary serves a fresh in-memory log
// whose LSNs (and session ids) restart at 1. The puller's cursor used to
// stay at the old high-water mark forever — empty batches, Lag 0,
// replication silently dead — while the standby store kept the OLD
// process's session state, replayable under ids the NEW process reuses.
// The puller must detect the restart (boot id change / LSN regression),
// rewind to the new log's start, and clear the store.
func TestPullerRecoversFromPrimaryRestart(t *testing.T) {
	logA := NewLog(64)
	logA.Append(Record{Op: OpCreate, Session: "s00000001", Query: json.RawMessage(`{"table":"a"}`)})
	for i := 1; i <= 4; i++ {
		logA.Append(Record{Op: OpCommit, Session: "s00000001", Seq: uint64(i), Committed: int64(i * 10), Tuples: 10, Payload: []byte("old")})
	}
	logA.Append(Record{Op: OpCreate, Session: "s00000002", Query: json.RawMessage(`{"table":"a"}`)})

	var mu sync.Mutex
	active := logA
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		l := active
		mu.Unlock()
		FeedHandler(l)(w, r)
	}))
	defer srv.Close()

	st := NewStore(0)
	p := &Puller{URL: srv.URL, Store: st}
	if n, err := p.PollOnce(context.Background()); err != nil || n != 6 {
		t.Fatalf("first PollOnce = (%d, %v), want (6, nil)", n, err)
	}
	if got := p.Cursor(); got != 7 {
		t.Fatalf("cursor = %d, want 7", got)
	}

	// The primary restarts: fresh log, fresh boot id, session ids reused
	// by unrelated sessions with different state.
	logB := NewLog(64)
	logB.Append(Record{Op: OpCreate, Session: "s00000001", Query: json.RawMessage(`{"table":"b"}`)})
	logB.Append(Record{Op: OpCommit, Session: "s00000001", Seq: 1, Committed: 7, Tuples: 7, Payload: []byte("new")})
	mu.Lock()
	active = logB
	mu.Unlock()

	n, err := p.PollOnce(context.Background())
	if err != nil {
		t.Fatalf("post-restart PollOnce: %v", err)
	}
	if n != 2 {
		t.Fatalf("post-restart PollOnce applied %d records, want 2 (the new log)", n)
	}
	if got := p.Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if got := p.Cursor(); got != 3 {
		t.Fatalf("post-restart cursor = %d, want 3", got)
	}
	if got := p.Lag(); got != 0 {
		t.Fatalf("post-restart lag = %d, want 0", got)
	}
	// The store holds ONLY the new incarnation's state: the reused id
	// reflects logB, and the old-only session is gone.
	if st.Sessions() != 1 {
		t.Fatalf("store holds %d sessions, want 1", st.Sessions())
	}
	ss, ok := st.Get("s00000001")
	if !ok || string(ss.Payload) != "new" || ss.Committed != 7 || string(ss.Query) != `{"table":"b"}` {
		t.Fatalf("reused id serves stale state: %+v ok=%v", ss, ok)
	}
	if _, ok := st.Get("s00000002"); ok {
		t.Fatal("pre-restart session s00000002 survived the restart")
	}

	// Replication keeps flowing on the new log.
	logB.Append(Record{Op: OpCommit, Session: "s00000001", Seq: 2, Committed: 14, Tuples: 7, Payload: []byte("new2")})
	if n, err := p.PollOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("follow-up PollOnce = (%d, %v), want (1, nil)", n, err)
	}
	if got := p.Restarts(); got != 1 {
		t.Fatalf("Restarts after follow-up = %d, want 1 (no false positives)", got)
	}
}

func TestStoreLagMillisUsesShipTimestamp(t *testing.T) {
	st := NewStore(0)
	base := time.Unix(1000, 0)
	st.setClock(func() time.Time { return base.Add(40 * time.Millisecond) })
	st.Apply(Record{Op: OpCommit, Session: "s", Seq: 1, ShippedUnixNano: base.UnixNano()})
	if got := st.LastLagMS(); got != 40 {
		t.Fatalf("lag = %v ms, want 40", got)
	}
}

func TestStoreCommitWithoutCreateStillServes(t *testing.T) {
	st := NewStore(0)
	st.Apply(Record{Op: OpCommit, Session: "orphan", Seq: 3, Committed: 90, Tuples: 30, Payload: []byte("p")})
	ss, ok := st.Get("orphan")
	if !ok || ss.Seq != 3 || ss.Committed != 90 {
		t.Fatalf("orphan commit not retained: %+v ok=%v", ss, ok)
	}
}

func TestStoreEvictsOldestBeyondCapacity(t *testing.T) {
	st := NewStore(0)
	st.maxSess = 3
	now := time.Unix(0, 0)
	st.setClock(func() time.Time { now = now.Add(time.Second); return now })
	for i := 0; i < 4; i++ {
		st.Apply(Record{Op: OpCreate, Session: fmt.Sprintf("s%d", i)})
	}
	if st.Sessions() != 3 {
		t.Fatalf("sessions = %d, want 3", st.Sessions())
	}
	if _, ok := st.Get("s0"); ok {
		t.Fatal("oldest session s0 not evicted")
	}
	if _, ok := st.Get("s3"); !ok {
		t.Fatal("newest session s3 missing")
	}
}

// TestLogConcurrentAppendRead races the block hot path's Append (with
// eviction recycling each record's buffer) against the feed's Read: every
// batch must hold exactly one payload — its last commit's — and that
// payload must read intact until the batch is released.
func TestLogConcurrentAppendRead(t *testing.T) {
	l := NewLog(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			buf := []byte("payload")
			var refs atomic.Int32
			refs.Store(1)
			l.Append(Record{Op: OpCommit, Session: "s", Seq: uint64(i), Payload: buf,
				Ref: funcRef{
					retain: func() { refs.Add(1) },
					release: func() {
						if refs.Add(-1) == 0 {
							copy(buf, "RECYCLE") // a read without a reference races this
						}
					},
				}})
		}
		close(stop)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var from uint64 = 1
		for {
			recs, _, next, release := l.Read(from, 64)
			for i, r := range recs {
				if last := i == len(recs)-1; (r.Payload != nil) != last {
					t.Errorf("lsn %d of a %d-record batch: payload present = %v", r.LSN, len(recs), r.Payload != nil)
				} else if last && string(r.Payload) != "payload" {
					t.Errorf("corrupt payload %q at lsn %d", r.Payload, r.LSN)
				}
			}
			release()
			from = next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
}
