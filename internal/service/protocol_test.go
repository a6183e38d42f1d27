package service

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/replica"
	"wsopt/internal/wire"
)

func TestParseQuery(t *testing.T) {
	lim := Limits{MaxSize: 1000, MaxWindow: 4}
	for _, tc := range []struct {
		raw      string
		needSize bool
		want     Query
		bad      bool
	}{
		{raw: "size=10&seq=3", needSize: true, want: Query{Size: 10, Seq: 3}},
		{raw: "size=10", needSize: true, want: Query{Size: 10}},
		{raw: "seq=3", needSize: true, bad: true},
		{raw: "seq=3", want: Query{Seq: 3}},
		{raw: "size=0", bad: true},
		{raw: "size=1001", bad: true},
		{raw: "size=-1", bad: true},
		{raw: "size=ten", bad: true},
		{raw: "size=10&seq=0", bad: true},
		{raw: "size=10&from=0", bad: true},
		{raw: "size=10&window=0", bad: true},
		{raw: "size=10&seq=18446744073709551616", bad: true},
		{raw: "acked=0", want: Query{}},
		{raw: "acked=7&window=2&size=5", want: Query{Acked: 7, Window: 2, Size: 5}},
		{raw: "size=10&window=9&from=2", want: Query{Size: 10, Window: 4, From: 2}},
		// The cap must hold for a window no int can carry.
		{raw: "size=10&window=18446744073709551615", want: Query{Size: 10, Window: 4}},
		{raw: "size=10&window=9223372036854775808", want: Query{Size: 10, Window: 4}},
		{raw: "size=10&seq=3&hold=1", needSize: true, want: Query{Size: 10, Seq: 3, Hold: true}},
		{raw: "size=10&hold=0", bad: true},
		{raw: "size=10&hold=true", bad: true},
		{raw: "size=10&hold=2", bad: true},
	} {
		v, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseQuery(v, lim, tc.needSize)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("ParseQuery(%q, needSize=%v) = %+v, %v; want %+v, bad=%v", tc.raw, tc.needSize, got, err, tc.want, tc.bad)
		}
	}
	// Without limits only the int range bounds a value.
	v, _ := url.ParseQuery("size=5000000&window=100000")
	if got, err := ParseQuery(v, Limits{}, true); err != nil || got.Size != 5000000 || got.Window != 100000 {
		t.Errorf("unlimited parse = %+v, %v", got, err)
	}
}

// TestQueryEncodeRoundTrip: Encode is ParseQuery's inverse. The property
// walks Query's fields by reflection, so a key added to ParseQuery (and
// Query) without Encode loses its value on the way round and fails here.
func TestQueryEncodeRoundTrip(t *testing.T) {
	roundTrip := func(q Query, zero uint8) bool {
		// The grammar has no negative number, and every subset of absent
		// keys is a request some tier sends.
		q.Size, q.Window = q.Size&math.MaxInt, q.Window&math.MaxInt
		for i, f := range []func(){func() { q.Size = 0 }, func() { q.Window = 0 }, func() { q.Seq = 0 }, func() { q.From = 0 }, func() { q.Acked = 0 }, func() { q.Hold = false }} {
			if zero&(1<<i) != 0 {
				f()
			}
		}
		v, err := url.ParseQuery(q.Encode())
		if err != nil {
			t.Logf("%+v encodes to %q: %v", q, q.Encode(), err)
			return false
		}
		present := 0
		for rv, i := reflect.ValueOf(q), 0; i < rv.NumField(); i++ {
			if !rv.Field(i).IsZero() {
				present++
			}
		}
		got, err := ParseQuery(v, Limits{}, false)
		if err != nil || got != q || len(v) != present {
			t.Logf("%+v -> %q (%d keys for %d non-zero fields) -> %+v, %v", q, q.Encode(), len(v), present, got, err)
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}

	// The requests the tiers send, byte for byte as before Encode wrote
	// them — but for the credit grant, whose keys came in the reverse of
	// the stream open's order and now come, like every request's, in
	// ParseQuery's.
	for _, tc := range []struct {
		request string
		q       Query
		want    string
	}{
		{"pull", Query{Size: 64, Seq: 7}, "size=64&seq=7"},
		{"promising pull", Query{Size: 64, Seq: 7, Hold: true}, "size=64&seq=7&hold=1"},
		{"stream open", Query{Size: 64, Window: 4, From: 8}, "size=64&window=4&from=8"},
		{"credit grant", Query{Acked: 7, Window: 4, Size: 64}, "size=64&window=4&acked=7"},
		{"ingest block", Query{Seq: 3}, "seq=3"},
		{"gateway upstream pull", Query{Size: 20000, Seq: 18446744073709551615}, "size=20000&seq=18446744073709551615"},
		{"nothing", Query{}, ""},
	} {
		if got := tc.q.Encode(); got != tc.want {
			t.Errorf("%s: %+v encodes to %q, want %q", tc.request, tc.q, got, tc.want)
		}
	}
}

func TestClassifySeq(t *testing.T) {
	for _, tc := range []struct {
		seq, oldest, last uint64
		done              bool
		wantSeq           uint64
		want              SeqClass
	}{
		{seq: 1, oldest: 0, last: 0, wantSeq: 1, want: SeqFresh},
		{seq: 0, oldest: 0, last: 0, wantSeq: 1, want: SeqFresh},
		{seq: 2, oldest: 0, last: 0, wantSeq: 2, want: SeqOutside},
		{seq: 5, oldest: 5, last: 5, wantSeq: 5, want: SeqReplay},
		{seq: 6, oldest: 5, last: 5, wantSeq: 6, want: SeqFresh},
		{seq: 0, oldest: 5, last: 5, wantSeq: 6, want: SeqFresh},
		{seq: 4, oldest: 5, last: 5, wantSeq: 4, want: SeqOutside},
		{seq: 7, oldest: 5, last: 5, wantSeq: 7, want: SeqOutside},
		{seq: 3, oldest: 3, last: 5, wantSeq: 3, want: SeqReplay},
		{seq: 2, oldest: 3, last: 5, wantSeq: 2, want: SeqOutside},
		// An acked-away window (oldest past last) replays nothing.
		{seq: 5, oldest: 6, last: 5, wantSeq: 5, want: SeqOutside},
		{seq: 5, oldest: 5, last: 5, done: true, wantSeq: 5, want: SeqReplay},
		{seq: 6, oldest: 5, last: 5, done: true, wantSeq: 6, want: SeqGone},
		{seq: 0, oldest: 5, last: 5, done: true, wantSeq: 6, want: SeqGone},
	} {
		if seq, c := ClassifySeq(tc.seq, tc.oldest, tc.last, tc.done); seq != tc.wantSeq || c != tc.want {
			t.Errorf("ClassifySeq(%d, [%d,%d], done=%v) = %d, %d; want %d, %d", tc.seq, tc.oldest, tc.last, tc.done, seq, c, tc.wantSeq, tc.want)
		}
	}
}

// TestPushWindowOverflowIsClamped: a window that overflows int used to
// wrap to -1, slip under the PushMaxWindow clamp and turn the credit
// check into acked+2^64-1 — the whole relation was produced and retained
// without a single ack. The cap is the server's memory protection and
// must hold for any number a peer can spell.
func TestPushWindowOverflowIsClamped(t *testing.T) {
	const maxWindow = 4
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5000), Codec: wire.Binary{}, PushMaxWindow: maxWindow})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/stream?size=10&window=18446744073709551615", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream open: %s", resp.Status)
	}
	pc := &pushConn{t: t, ts: ts, id: id, body: resp.Body}
	for i := 1; i <= maxWindow; i++ {
		if f, err := pc.read(); err != nil || f.Seq != uint64(i) {
			t.Fatalf("frame %d: seq %d, err %v", i, f.Seq, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().PushCreditStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("producer never stalled: %d frames sent without an ack, cap %d", srv.Stats().PushFramesSent, maxWindow)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().PushFramesSent; got != maxWindow {
		t.Fatalf("%d frames sent before the first credit, cap %d", got, maxWindow)
	}
	sess, _ := srv.sessions.get(id)
	sess.tail.mu.Lock()
	retained, window := len(sess.tail.frames), sess.tail.window
	sess.tail.mu.Unlock()
	if retained != maxWindow || window != maxWindow {
		t.Fatalf("tail retains %d frames under window %d, want %d / %d", retained, window, maxWindow, maxWindow)
	}
}

// fatCatalog is a table whose rows carry a 2 KiB string, so that a few
// thousand of them outgrow any socket buffer.
func fatCatalog(t *testing.T, rows int) *minidb.Catalog {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "pad", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 2<<10)
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(pad)})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	return cat
}

// lockedBuffer is a log sink the test can read while handlers write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// stalledRequest sends one bodiless POST on a raw connection and never
// reads the answer: the peer a per-block write deadline exists for.
func stalledRequest(t *testing.T, addr net.Addr, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: stalled\r\nContent-Length: 0\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	return conn
}

func shortenWriteDeadline(t *testing.T, d time.Duration) {
	old := blockWriteDeadline
	blockWriteDeadline = d
	t.Cleanup(func() { blockWriteDeadline = old })
}

// TestStalledStreamReaderHitsWriteDeadline: a client opens a stream with
// a full window and never reads. Credit does not bound that — the
// producer is blocked inside a write. The per-block write deadline must
// end the producer, the frames it committed must stay retained, and a
// reconnect must replay them: exactly-once survives a stalled peer.
func TestStalledStreamReaderHitsWriteDeadline(t *testing.T) {
	shortenWriteDeadline(t, 300*time.Millisecond)
	const rows, size, window = 8000, 1000, 4 // 2 MiB frames, 8 MiB window
	var logs lockedBuffer
	srv, ts := newTestServer(t, Config{Catalog: fatCatalog(t, rows), Codec: wire.Binary{}, Logger: log.New(&logs, "", 0)})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	stalledRequest(t, ts.Listener.Addr(), fmt.Sprintf("/sessions/%s/stream?size=%d&window=%d", id, size, window))

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "write block") {
		if time.Now().After(deadline) {
			t.Fatalf("producer still blocked on a reader that never reads; log:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess, _ := srv.sessions.get(id)
	sess.tail.mu.Lock()
	retained, acked, produced := len(sess.tail.frames), sess.tail.acked, sess.tail.produced
	sess.tail.mu.Unlock()
	if retained == 0 || acked != 0 || uint64(retained) != produced {
		t.Fatalf("after the deadline: %d frames retained, acked %d, produced %d; every produced frame must stay retained", retained, acked, produced)
	}
	if st := srv.Stats(); st.PushFramesSent >= int64(produced) {
		t.Fatalf("%d frames counted as sent of %d produced: the failed write was not taken back", st.PushFramesSent, produced)
	}

	pc, resp := openStream(t, ts, id, size, window, 1)
	if pc == nil {
		t.Fatalf("reconnect: %s", resp.Status)
	}
	defer pc.close()
	next := int64(0)
	for seq := uint64(1); ; seq++ {
		f, err := pc.read()
		if err != nil || f.Type != wire.FrameData || f.Seq != seq {
			t.Fatalf("frame %d after reconnect: type %d seq %d err %v", seq, f.Type, f.Seq, err)
		}
		if f.Replay != (seq <= produced) {
			t.Fatalf("frame %d: replay flag %v with %d frames produced before the reconnect", seq, f.Replay, produced)
		}
		_, blockRows, err := wire.Binary{}.Decode(bytes.NewReader(f.Payload))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range blockRows {
			if r[0].I != next {
				t.Fatalf("row id %d, want %d: duplicate or gap across the stalled stream", r[0].I, next)
			}
			next++
		}
		pc.ack(t, f.Seq)
		if f.Done {
			break
		}
	}
	if next != rows {
		t.Fatalf("received %d rows, want %d", next, rows)
	}
}

// TestStalledPullReaderHitsWriteDeadline is the /next arm: the stalled
// write holds sess.mu, so without a deadline the same-seq retry waits
// for the session TTL. With it the retry is served the retained block.
func TestStalledPullReaderHitsWriteDeadline(t *testing.T) {
	shortenWriteDeadline(t, 300*time.Millisecond)
	const rows = 4000 // one 8 MiB block
	srv, ts := newTestServer(t, Config{Catalog: fatCatalog(t, rows), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	stalledRequest(t, ts.Listener.Addr(), fmt.Sprintf("/sessions/%s/next?size=%d&seq=1", id, rows))

	// The retry must not overtake the stalled request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess, _ := srv.sessions.get(id)
		sess.tail.mu.Lock()
		produced := sess.tail.produced
		sess.tail.mu.Unlock()
		if produced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled pull never committed its block")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Post(fmt.Sprintf("%s/sessions/%s/next?size=%d&seq=1", ts.URL, id, rows), "", nil)
	if err != nil {
		t.Fatalf("same-seq retry behind a stalled reader: %v", err)
	}
	defer resp.Body.Close()
	meta, payload, err := readFrame(resp.Body)
	var got []minidb.Row
	if err == nil {
		_, got, err = wire.Binary{}.Decode(bytes.NewReader(payload))
	}
	if err != nil || resp.StatusCode != http.StatusOK || len(got) != rows {
		t.Fatalf("retry: %s, %d rows, %v", resp.Status, len(got), err)
	}
	if !meta.Replayed {
		t.Fatal("retry was not served from the retained block")
	}
	if st := srv.Stats(); st.BlocksServed != 1 || st.BlocksReplayed != 1 || st.TuplesServed != rows {
		t.Fatalf("stats after a timed-out write and its retry: %+v", st)
	}
}

// TestStressCloseRacesCommit is the narrow arm of the close race:
// TestCloseRaceOwnershipHandoff lands its DELETE in the middle of a
// 300 ms delay, this one races it against the commit itself, where a
// check-then-ship commit (load closed … append OpCommit) lets the DELETE
// slip its OpClose in between. Per session, no record may follow OpClose,
// and every reference must be given back. Run under -race.
func TestStressCloseRacesCommit(t *testing.T) {
	const sessions = 300
	rlog := replica.NewLog(4 * sessions)
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 100), Codec: wire.Binary{}, Replica: rlog})
	hc := ts.Client()
	do := func(method, path string) {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := hc.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Each session commits block 1, then block 2 and the DELETE race.
	ids := make([]string, sessions)
	for i := range ids {
		ids[i], _ = openSession(t, ts, `{"table":"items"}`)
		do(http.MethodPost, "/sessions/"+ids[i]+"/next?size=10&seq=1")
	}
	for _, id := range ids {
		var pair sync.WaitGroup
		pair.Add(2)
		go func() { defer pair.Done(); do(http.MethodPost, "/sessions/"+id+"/next?size=10&seq=2") }()
		go func() { defer pair.Done(); do(http.MethodDelete, "/sessions/"+id) }()
		pair.Wait()
	}

	recs, _, _, release := rlog.Read(1, 8*sessions)
	release()
	closed := map[string]bool{}
	commits := 0
	for _, rec := range recs {
		if closed[rec.Session] {
			t.Fatalf("session %s: %s (LSN %d) shipped after its OpClose", rec.Session, rec.Op, rec.LSN)
		}
		switch rec.Op {
		case replica.OpClose:
			closed[rec.Session] = true
		case replica.OpCommit:
			commits++
		}
	}
	if len(closed) != sessions {
		t.Fatalf("%d sessions closed in the log, want %d", len(closed), sessions)
	}
	t.Logf("%d commits of a possible %d made it in before their close", commits, 2*sessions)
	rlog.Close()
	assertNoRetainedBlocks(t, srv)
}

// assertNoRetainedBlocks waits briefly — a writer gives its reference
// back after the peer already holds the block — and then insists that
// every reference to every block has been released, and every byte a
// push tail charged credited back.
func assertNoRetainedBlocks(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.RetainedBlocks() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.RetainedBlocks(); n != 0 {
		t.Fatalf("%d block references still held after every session closed and the log drained", n)
	}
	if n := srv.Stats().PushRetainedBytes; n != 0 {
		t.Fatalf("%d bytes still charged to push tails after every session closed", n)
	}
}
