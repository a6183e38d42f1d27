package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"wsopt/internal/blockcache"
	"wsopt/internal/replica"
)

// TestReplicationShipsSessionLifecycle checks the service ships one
// record per session mutation — create (with the verbatim query body and
// starting cursor), commit (seq, committed cursor), close — that a batch
// carries the payload of each session's LAST commit only, byte-identical
// to the served block, and that GET /replication/feed hands a real
// follower exactly that.
func TestReplicationShipsSessionLifecycle(t *testing.T) {
	rlog := replica.NewLog(256)
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 100), Replica: rlog})

	body := `{"table":"items","offset":20}`
	id, _ := openSession(t, ts, body)

	served := map[uint64][]byte{}
	for seq := 1; seq <= 3; seq++ {
		resp := pullSeq(t, ts, id, 10, seq)
		_, b, err := readFrame(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: %s, %v", seq, resp.Status, err)
		}
		served[uint64(seq)] = b
	}
	// A replay must NOT ship a record (no state changed).
	resp := pullSeq(t, ts, id, 10, 3)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A follower pulling mid-session, over HTTP, holds block 3's bytes.
	store := replica.NewStore(0)
	puller := &replica.Puller{URL: ts.URL, Store: store}
	if n, err := puller.PollOnce(context.Background()); err != nil || n != 4 {
		t.Fatalf("PollOnce = (%d, %v), want (4, nil): create + 3 commits", n, err)
	}
	ss, ok := store.Get(id)
	if !ok || ss.Seq != 3 || ss.Committed != 50 || ss.Tuples != 10 || ss.Done || ss.Codec != "xml" || string(ss.Query) != body {
		t.Fatalf("standby state = %+v (ok=%v)", ss, ok)
	}
	if !bytes.Equal(ss.Payload, served[3]) {
		t.Fatal("standby payload differs from the served block 3")
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%s", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if n, err := puller.PollOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("PollOnce after close = (%d, %v), want (1, nil)", n, err)
	}
	if _, ok := store.Get(id); ok {
		t.Fatal("standby state survived the close record")
	}

	// The whole lifecycle as one batch.
	recs, _, _, release := rlog.Read(1, 100)
	defer release()
	if len(recs) != 5 {
		t.Fatalf("shipped %d records, want 5 (create + 3 commits + close)", len(recs))
	}
	cr := recs[0]
	if cr.Op != replica.OpCreate || cr.Session != id || string(cr.Query) != body || cr.Committed != 20 {
		t.Fatalf("create record = %+v", cr)
	}
	for i := 1; i <= 3; i++ {
		rec := recs[i]
		if rec.Op != replica.OpCommit || rec.Session != id {
			t.Fatalf("record %d = %+v", i, rec)
		}
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
		if want := int64(20 + 10*i); rec.Committed != want {
			t.Fatalf("record %d: committed %d, want %d", i, rec.Committed, want)
		}
		if rec.Tuples != 10 || rec.Done {
			t.Fatalf("record %d: tuples=%d done=%v", i, rec.Tuples, rec.Done)
		}
		if rec.Codec != "xml" {
			t.Fatalf("record %d: codec %q", i, rec.Codec)
		}
		if i < 3 && rec.Payload != nil {
			t.Fatalf("record %d: carries a payload a later commit of the batch supersedes", i)
		}
	}
	if !bytes.Equal(recs[3].Payload, served[3]) {
		t.Fatal("last commit's shipped payload differs from the served block")
	}
	if cl := recs[4]; cl.Op != replica.OpClose || cl.Session != id {
		t.Fatalf("close record = %+v", cl)
	}
}

// TestShippedReplayBufferRefcount is the regression test for the pooled
// replay-buffer lifetime with a second consumer: a superseded block's
// buffer must stay out of the pool while the replication log still
// retains its payload, and go back exactly once when the LAST reference
// drops — in either order (supersede-then-evict or evict-then-supersede).
func TestShippedReplayBufferRefcount(t *testing.T) {
	rlog := replica.NewLog(256) // large: no eviction during the pulls
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 200), Replica: rlog})
	var mu sync.Mutex
	released := 0
	onFinalRelease(t, srv, func(*blockcache.Entry) { mu.Lock(); released++; mu.Unlock() })
	id, _ := openSession(t, ts, `{"table":"items"}`)

	const blocks = 8
	for seq := 1; seq <= blocks; seq++ {
		resp := pullSeq(t, ts, id, 10, seq)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Every superseded block is still referenced by its log record:
	// nothing may have been pooled yet.
	mu.Lock()
	if released != 0 {
		mu.Unlock()
		t.Fatalf("%d buffers pooled while the replication log still held them", released)
	}
	mu.Unlock()

	// Dropping the log's references pools the superseded blocks 1..7;
	// block 8 is still live in the session (replayable), so it survives.
	rlog.Close()
	mu.Lock()
	if released != blocks-1 {
		mu.Unlock()
		t.Fatalf("after log close: %d buffers pooled, want %d", released, blocks-1)
	}
	mu.Unlock()

	// Closing the session drops the last reference to block 8, and the
	// only one to block 9, which block 8's read-ahead prepared (the pulls
	// hold size 10) and nothing shipped: it was never committed. A read-ahead
	// encode that outlives the session releases its block on its own
	// goroutine: RetainedBlocks joins the encodes before the count.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%s", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.RetainedBlocks()
	mu.Lock()
	defer mu.Unlock()
	if released != blocks+1 {
		t.Fatalf("after session close: %d buffers pooled, want %d", released, blocks+1)
	}
}

// TestShippedPayloadStableUnderPoolChurn is the -race regression for
// replication shipping: a follower reading the feed while pulls churn
// the buffer pool must never observe a shipped payload backed by a
// reused buffer. Without the refcount, a superseded block's buffer goes
// back to the pool while its log record still aliases the bytes, and
// the feed read races the next pull's encode into the same buffer.
func TestShippedPayloadStableUnderPoolChurn(t *testing.T) {
	rlog := replica.NewLog(64) // small: records evict while sessions run
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 2000), Replica: rlog})
	idA, _ := openSession(t, ts, `{"table":"items"}`)
	idB, _ := openSession(t, ts, `{"table":"items","where":"id >= 500"}`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Follower: continuously drain the feed and touch every payload
		// byte, so any buffer reuse is visible to the race detector.
		defer wg.Done()
		var from uint64 = 1
		for {
			recs, _, next, release := rlog.Read(from, 32)
			for _, rec := range recs {
				sum := 0
				for _, b := range rec.Payload {
					sum += int(b)
				}
				_ = sum
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

	for seq := 1; seq <= 60; seq++ {
		for _, id := range []string{idA, idB} {
			resp := pullSeq(t, ts, id, 7, seq)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()

	appended, _ := rlog.Stats()
	if want := uint64(2 + 120); appended != want {
		t.Fatalf("appended %d records, want %d", appended, want)
	}
}

// TestShipCommitAllocGate holds replicating a commit to no allocation of
// its own, steady state (run without the race detector: `scripts/verify.sh
// allocgate`): the record's reference hook is the block itself,
// not a closure or method value per block.
func TestShipCommitAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	rlog := replica.NewLog(16)
	srv, _ := newTestServer(t, Config{Catalog: testCatalog(t, 10), Replica: rlog})
	sess := &session{id: "s"}
	// The session's reference: the log's evictions never recycle it.
	rb := srv.refs.Copy([]byte("block"), 0, false)
	// Fill the ring: from here on every append evicts.
	for range 32 {
		srv.shipCommit(sess, 1, rb)
	}
	if allocs := testing.AllocsPerRun(200, func() { srv.shipCommit(sess, 1, rb) }); allocs > 0 {
		t.Fatalf("shipping a commit allocates %.1f times, gate is 0", allocs)
	}
	rlog.Close()
	if n := srv.RetainedBlocks(); n != 1 {
		t.Fatalf("%d references left on the block after the log closed, want the session's 1", n)
	}
}
