package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// pushConn is a raw push-protocol driver for tests: one open stream
// body plus a credit sender over the same http.Client.
type pushConn struct {
	t    *testing.T
	ts   *httptest.Server
	id   string
	body io.ReadCloser
	buf  []byte
}

func openStream(t *testing.T, ts *httptest.Server, id string, size, window int, from uint64) (*pushConn, *http.Response) {
	t.Helper()
	url := fmt.Sprintf("%s/sessions/%s/stream?size=%d&window=%d", ts.URL, id, size, window)
	if from > 0 {
		url += fmt.Sprintf("&from=%d", from)
	}
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	return &pushConn{t: t, ts: ts, id: id, body: resp.Body}, resp
}

func (pc *pushConn) read() (wire.Frame, error) {
	f, buf, err := wire.ReadFrame(pc.body, 0, pc.buf)
	pc.buf = buf
	return f, err
}

func (pc *pushConn) ack(t *testing.T, acked uint64) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/credit?acked=%d", pc.ts.URL, pc.id, acked), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("credit: %s", resp.Status)
	}
}

func (pc *pushConn) close() { pc.body.Close() }

// drainStream reads data frames, acking each, until the done frame;
// returns rows decoded with codec and the last seq seen.
func drainStream(t *testing.T, pc *pushConn, codec wire.Codec) (rows []minidb.Row, lastSeq uint64) {
	t.Helper()
	for {
		f, err := pc.read()
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if f.Type == wire.FrameError {
			t.Fatalf("error frame: %s", f.Payload)
		}
		if f.Seq != lastSeq+1 {
			t.Fatalf("seq %d after %d: gap or duplicate", f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		_, blockRows, err := codec.Decode(strings.NewReader(string(f.Payload)))
		if err != nil {
			t.Fatalf("decode frame %d: %v", f.Seq, err)
		}
		if int(f.Tuples) != len(blockRows) {
			t.Fatalf("frame %d: header says %d tuples, payload has %d", f.Seq, f.Tuples, len(blockRows))
		}
		rows = append(rows, blockRows...)
		pc.ack(t, f.Seq)
		if f.Done {
			// Drain to EOF: the chunked body must end cleanly after done.
			if _, err := pc.read(); err != io.EOF {
				t.Fatalf("after done frame: %v, want EOF", err)
			}
			return rows, lastSeq
		}
	}
}

func TestPushStreamServesWholeResultSet(t *testing.T) {
	const rows = 237
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 50, 4, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	defer pc.close()
	got, lastSeq := drainStream(t, pc, wire.Binary{})
	if len(got) != rows {
		t.Fatalf("pushed %d rows, want %d", len(got), rows)
	}
	for i, r := range got {
		if r[0].I != int64(i) {
			t.Fatalf("row %d: id %d", i, r[0].I)
		}
	}
	st := srv.Stats()
	if st.PushStreamsOpened != 1 || st.PushFramesSent != int64(lastSeq) {
		t.Fatalf("stats: %+v", st)
	}
	if st.BlocksServed != int64(lastSeq) || st.TuplesServed != int64(rows) {
		t.Fatalf("push frames must count as served blocks: %+v", st)
	}
}

// TestPushPullByteIdentical pins the transport-equivalence contract:
// the payload of push frame N equals the body of pull response N for
// the same plan and block size, codec by codec.
func TestPushPullByteIdentical(t *testing.T) {
	for _, codecName := range []string{"xml", "xml+gzip", "binary", "binary+gzip"} {
		t.Run(codecName, func(t *testing.T) {
			codec, err := wire.ByName(codecName)
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 120), Codec: codec})

			pullID, _ := openSession(t, ts, `{"table":"items"}`)
			var pullBodies [][]byte
			for seq := 1; ; seq++ {
				resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/next?size=37&seq=%d", ts.URL, pullID, seq), "", nil)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("pull %d: %s", seq, resp.Status)
				}
				pullBodies = append(pullBodies, body)
				if resp.Header.Get(HeaderBlockDone) == "true" {
					break
				}
			}

			pushID, _ := openSession(t, ts, `{"table":"items"}`)
			pc, resp := openStream(t, ts, pushID, 37, 8, 0)
			if pc == nil {
				t.Fatalf("stream open: %s", resp.Status)
			}
			defer pc.close()
			for i := 0; ; i++ {
				f, err := pc.read()
				if err != nil {
					t.Fatal(err)
				}
				if i >= len(pullBodies) {
					t.Fatalf("push produced more frames than pull produced blocks")
				}
				if string(f.Payload) != string(pullBodies[i]) {
					t.Fatalf("frame %d payload differs from pull body", i+1)
				}
				pc.ack(t, f.Seq)
				if f.Done {
					if i != len(pullBodies)-1 {
						t.Fatalf("push done after %d frames, pull after %d", i+1, len(pullBodies))
					}
					break
				}
			}
		})
	}
}

// TestPushWindowBackpressure: with window=2 and no acks, the producer
// must stop at exactly 2 frames in flight and resume on credit.
func TestPushWindowBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 500), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 50, 2, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	defer pc.close()

	// Two frames arrive without any ack; the third must not.
	for i := 0; i < 2; i++ {
		if _, err := pc.read(); err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().PushCreditStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never stalled with the window exhausted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().PushFramesSent; got != 2 {
		t.Fatalf("frames sent with window 2 and no acks: %d", got)
	}

	pc.ack(t, 2)
	f, err := pc.read()
	if err != nil || f.Seq != 3 {
		t.Fatalf("after credit: frame %d, err %v", f.Seq, err)
	}
}

// TestPushWindowCapIsAnnounced: every stream open's 200 carries the cap
// the server applies, whether or not it had to apply it, and an open
// that asked for more is counted.
func TestPushWindowCapIsAnnounced(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 500), Codec: wire.Binary{}, PushMaxWindow: 3})
	for _, tc := range []struct{ window, clamped int }{{2, 0}, {3, 0}, {9, 1}} {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		pc, resp := openStream(t, ts, id, 10, tc.window, 0)
		if pc == nil {
			t.Fatalf("stream open: %s", resp.Status)
		}
		pc.close()
		if got := resp.Header.Get(HeaderPushWindow); got != "3" {
			t.Errorf("window=%d: %s = %q, want the cap 3", tc.window, HeaderPushWindow, got)
		}
		if got := srv.Stats().PushWindowClamped; got != int64(tc.clamped) {
			t.Errorf("window=%d: %d opens counted as clamped, want %d", tc.window, got, tc.clamped)
		}
		sess, _ := srv.sessions.get(id)
		sess.tail.mu.Lock()
		applied := sess.tail.window
		sess.tail.mu.Unlock()
		if applied != min(tc.window, 3) {
			t.Errorf("window=%d: the tail applies %d", tc.window, applied)
		}
	}
}

// TestPushReconnectReplaysUnacked: kill the stream mid-transfer, reopen
// past the last ack, and the retained tail replays with no gap and no
// duplicate; the full relation arrives exactly once.
func TestPushReconnectReplaysUnacked(t *testing.T) {
	const rows = 400
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows), Codec: wire.Binary{}})
	live := srv.TrackReplayRefs()
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 40, 4, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}

	// Consume three frames but ack only the first: seqs 2..3 are
	// delivered-but-unacked, and up to 2 more may be in flight.
	var got []minidb.Row
	var delivered uint64
	for i := 0; i < 3; i++ {
		f, err := pc.read()
		if err != nil {
			t.Fatal(err)
		}
		_, blockRows, err := wire.Binary{}.Decode(strings.NewReader(string(f.Payload)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, blockRows...)
		delivered = f.Seq
	}
	// A fourth frame is lost in flight: read off the wire but never
	// delivered. Its arrival is also the proof that the server produced
	// it into the retained tail before the connection dies — a producer
	// that has not got that far has nothing to replay, and would serve
	// seq 4 fresh.
	if f, err := pc.read(); err != nil || f.Seq != delivered+1 {
		t.Fatalf("in-flight frame: seq %d, err %v", f.Seq, err)
	}
	pc.ack(t, 1)
	pc.close() // simulate the connection dying

	// Reconnect from delivered+1: the server must replay the retained
	// frames from 4 on and continue.
	pc2, resp := openStream(t, ts, id, 40, 4, delivered+1)
	if pc2 == nil {
		t.Fatalf("reopen: %s", resp.Status)
	}
	defer pc2.close()
	last := delivered
	for {
		f, err := pc2.read()
		if err != nil {
			t.Fatalf("read after reconnect: %v", err)
		}
		if f.Type == wire.FrameError {
			t.Fatalf("error frame: %s", f.Payload)
		}
		if f.Seq != last+1 {
			t.Fatalf("seq %d after %d", f.Seq, last)
		}
		if f.Seq == delivered+1 && !f.Replay {
			t.Fatalf("frame %d was produced before the reconnect but is not flagged a replay", f.Seq)
		}
		last = f.Seq
		_, blockRows, err := wire.Binary{}.Decode(strings.NewReader(string(f.Payload)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, blockRows...)
		pc2.ack(t, f.Seq)
		if f.Done {
			break
		}
	}
	if len(got) != rows {
		t.Fatalf("received %d rows across reconnect, want %d", len(got), rows)
	}
	for i, r := range got {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d: duplicate or gap across reconnect", i, r[0].I)
		}
	}
	if st := srv.Stats(); st.PushStreamsOpened != 2 || st.PushFramesReplayed == 0 {
		t.Fatalf("expected a second stream with replayed frames: %+v", st)
	}

	// Both streams' writers, the replayed tail and the frames the client
	// never acked: all of it is given back once the session closes.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	assertNoLiveReplayRefs(t, live)
}

// TestPushRejectsPullAndStaleFrom: a session in push mode refuses
// pulls, and a stream open inside the acked prefix is a 409.
func TestPushRejectsPullAndStaleFrom(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 200), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 50, 2, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	defer pc.close()
	f, err := pc.read()
	if err != nil {
		t.Fatal(err)
	}
	pc.ack(t, f.Seq)

	r2, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=10&seq=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("pull on a push session: %s, want 409", r2.Status)
	}

	// from=1 is inside the acked prefix now.
	pc2, resp := openStream(t, ts, id, 50, 2, 1)
	if pc2 != nil {
		pc2.close()
		t.Fatal("stream open inside the acked prefix succeeded")
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale from: %s, want 409", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Beyond the next block is a 409 too.
	pc3, resp := openStream(t, ts, id, 50, 2, 99)
	if pc3 != nil {
		pc3.close()
		t.Fatal("stream open beyond production succeeded")
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("future from: %s, want 409", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestPushMaxFrameError: a block that encodes past PushMaxFrameBytes
// must terminate the stream with an in-band error frame, not a hang or
// a partial frame.
func TestPushMaxFrameError(t *testing.T) {
	cfg := Config{Catalog: testCatalog(t, 100), Codec: wire.XML{}, PushMaxFrameBytes: 1 << 20}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.cfg.PushMaxFrameBytes = 64 // shrink after validation to force the error
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 50, 2, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	defer pc.close()
	f, err := pc.read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "push frame cap") {
		t.Fatalf("frame = %+v, want error frame about the frame cap", f)
	}
}

// TestPushDisabled: the endpoints don't exist when push is off.
func TestPushDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), PushDisabled: true})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/stream?size=10&window=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream with push disabled: %s, want 404", resp.Status)
	}
}

// TestPushDeleteMidStream: deleting the session mid-stream wakes the
// producer, ends the stream, and releases every retained buffer (the
// pooling invariants are checked by the release hook).
func TestPushDeleteMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 1000), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	pc, resp := openStream(t, ts, id, 20, 3, 0)
	if pc == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	defer pc.close()
	if _, err := pc.read(); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	// The stream must end (EOF or error) shortly after the delete, even
	// with frames unacked and credits exhausted.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := pc.read(); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after session delete")
	}
}

// TestPushCacheServesWarmFrames: a push stream over a cached server
// whose entries were warmed by an earlier session serves hits (no new
// misses), and the bytes match the cold frames.
func TestPushCacheServesWarmFrames(t *testing.T) {
	cache, err := blockcache.New(blockcache.Config{MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 300), Codec: wire.Binary{}, Cache: cache, Seed: 3})

	id1, _ := openSession(t, ts, `{"table":"items"}`)
	pc1, resp := openStream(t, ts, id1, 60, 4, 0)
	if pc1 == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	cold, _ := drainStream(t, pc1, wire.Binary{})
	pc1.close()
	missesAfterCold := cache.Stats().Misses

	id2, _ := openSession(t, ts, `{"table":"items"}`)
	pc2, resp := openStream(t, ts, id2, 60, 4, 0)
	if pc2 == nil {
		t.Fatalf("stream open: %s", resp.Status)
	}
	warm, _ := drainStream(t, pc2, wire.Binary{})
	pc2.close()

	if len(warm) != len(cold) {
		t.Fatalf("warm pass %d rows, cold %d", len(warm), len(cold))
	}
	st := cache.Stats()
	if st.Misses != missesAfterCold {
		t.Fatalf("warm push pass missed the cache: %d -> %d misses", missesAfterCold, st.Misses)
	}
	if st.MemHits == 0 {
		t.Fatal("warm push pass recorded no cache hits")
	}
}
