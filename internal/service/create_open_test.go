package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsopt/internal/replica"
	"wsopt/internal/wire"
)

// The creating open: POST /sessions/{name}/stream with the query as its
// body creates the session it names (handleStream). These tests speak it
// raw; the client's side of it is internal/client's.

const testName = "c0123456789abcdef0123456789abcdef"

// creatingOpen opens a stream on name with body (nil = none) and returns
// the connection on a 200.
func creatingOpen(t *testing.T, ts *httptest.Server, name, body string, size, window int, from uint64) (*pushConn, *http.Response) {
	t.Helper()
	url := fmt.Sprintf("%s/sessions/%s/stream?size=%d&window=%d&from=%d", ts.URL, name, size, window, from)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, resp
	}
	return &pushConn{t: t, ts: ts, id: name, body: resp.Body}, resp
}

func deleteSession(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCreatingOpenServesWholeResultSet: one request opens the session
// and the stream; its 200 carries what the 201 would have, and the
// create record ships under the client's name.
func TestCreatingOpenServesWholeResultSet(t *testing.T) {
	const rows = 237
	rlog := replica.NewLog(256)
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows), Codec: wire.Binary{}, Replica: rlog})
	body := `{"table":"items","offset":37}`
	pc, resp := creatingOpen(t, ts, testName, body, 50, 4, 1)
	if pc == nil {
		t.Fatalf("creating open: %s", resp.Status)
	}
	defer pc.close()
	if got := resp.Header.Get(HeaderSessionColumns); got != `["id","label"]` {
		t.Errorf("%s = %q, want the column names the 201 carries", HeaderSessionColumns, got)
	}
	if resp.Header.Get(HeaderPushWindow) == "" {
		t.Errorf("the creating open's 200 announces no window cap")
	}
	got, _ := drainStream(t, pc, wire.Binary{})
	if len(got) != rows-37 || got[0][0].I != 37 {
		t.Fatalf("streamed %d rows from id %d, want %d from 37", len(got), got[0][0].I, rows-37)
	}
	if st := srv.Stats(); st.SessionsOpened != 1 || srv.SessionCount() != 1 {
		t.Fatalf("%d sessions opened, %d live, want 1 and 1", st.SessionsOpened, srv.SessionCount())
	}

	// A follower's standby state is keyed by the name the client picked.
	store := replica.NewStore(0)
	puller := &replica.Puller{URL: ts.URL, Store: store}
	if _, err := puller.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ss, ok := store.Get(testName); !ok || string(ss.Query) != body || ss.Committed != rows {
		t.Fatalf("standby state under the client's name = %+v (ok=%v)", ss, ok)
	}
	if status := deleteSession(t, ts, testName); status != http.StatusNoContent {
		t.Fatalf("DELETE of a client-named session: %d", status)
	}
}

// TestCreatingOpenRefusals: what is not a valid creating open never
// leaves a session — a bad name, an unknown name without a body, and
// every refusal of the create path POST /sessions shares.
func TestCreatingOpenRefusals(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), Codec: wire.Binary{}})
	const query = `{"table":"items"}`
	for _, tc := range []struct {
		what, name, body string
		want             int
	}{
		{"wrong prefix", "d" + testName[1:], query, 400},
		{"a server-assigned id with a body", "s0000002a", query, 400},
		{"a gateway id with a body", "g0000002a", query, 400},
		{"too short", testName[:32], query, 400},
		{"too long", testName + "0", query, 400},
		{"upper-case hex", "c" + strings.ToUpper(testName[1:]), query, 400},
		{"not hex", "c" + strings.Repeat("z", 32), query, 400},
		{"unknown name, no body", testName, "", 404},
		{"unknown server id, no body", "s0000002a", "", 404},
		{"unknown table", testName, `{"table":"ghost"}`, 404},
		{"bad where", testName, `{"table":"items","where":"id >"}`, 400},
		{"negative offset", testName, `{"table":"items","offset":-1}`, 400},
		{"bad json", testName, `{bad`, 400},
	} {
		pc, resp := creatingOpen(t, ts, tc.name, tc.body, 5, 2, 1)
		if pc != nil {
			pc.close()
			t.Fatalf("%s: the open was accepted", tc.what)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d, want %d", tc.what, resp.StatusCode, tc.want)
		}
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("%s: %d sessions live after a refused open", tc.what, n)
		}
	}
	// A bad query string is refused before the body is looked at.
	resp, err := http.Post(ts.URL+"/sessions/"+testName+"/stream?size=0", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || srv.SessionCount() != 0 {
		t.Fatalf("size=0 on a creating open: %d, %d sessions", resp.StatusCode, srv.SessionCount())
	}
	if srv.cursors.Load() != 0 {
		t.Fatalf("%d admission slots held by refused opens", srv.cursors.Load())
	}
}

// TestCreatingOpenShedHonoursAdmission: the creating open goes through
// admitCursor like POST /sessions — 503 with Retry-After at the limit.
func TestCreatingOpenShedHonoursAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), Codec: wire.Binary{}, MaxSessions: 1})
	openSession(t, ts, `{"table":"items"}`)
	pc, resp := creatingOpen(t, ts, testName, `{"table":"items"}`, 5, 2, 1)
	if pc != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("creating open at the session limit: %v, Retry-After %q", resp.Status, resp.Header.Get("Retry-After"))
	}
	if st := srv.Stats(); st.SessionsShed != 1 || srv.SessionCount() != 1 {
		t.Fatalf("%d shed, %d live, want 1 and 1", st.SessionsShed, srv.SessionCount())
	}
}

// TestCreatingOpenIsIdempotent: the client retries an open whose 200 it
// never saw, body and all. The retry finds the session — the body on a
// live name is not read, so not even a broken one matters — and is
// replayed the retained frames: one session, no tuple skipped or repeated.
func TestCreatingOpenIsIdempotent(t *testing.T) {
	const rows, size = 100, 10
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows), Codec: wire.Binary{}})
	pc, resp := creatingOpen(t, ts, testName, `{"table":"items"}`, size, 3, 1)
	if pc == nil {
		t.Fatalf("creating open: %s", resp.Status)
	}
	// The whole first window is produced, then the connection dies with
	// nothing delivered.
	for seq := uint64(1); seq <= 3; seq++ {
		if f, err := pc.read(); err != nil || f.Seq != seq {
			t.Fatalf("frame %d: seq %d, %v", seq, f.Seq, err)
		}
	}
	pc.close()

	pc, resp = creatingOpen(t, ts, testName, `{"table":"ghost", this body is never parsed`, size, 3, 1)
	if pc == nil {
		t.Fatalf("retried open on the live name: %s", resp.Status)
	}
	defer pc.close()
	for seq := uint64(1); seq <= 3; seq++ {
		f, err := pc.read()
		if err != nil || f.Seq != seq || !f.Replay {
			t.Fatalf("frame %d after the retry: seq %d replay=%v, %v", seq, f.Seq, f.Replay, err)
		}
	}
	pc.ack(t, 3)
	got, last := uint64(3*size), uint64(3)
	for {
		f, err := pc.read()
		if err != nil || f.Seq != last+1 || f.Replay {
			t.Fatalf("frame after %d: seq %d replay=%v, %v", last, f.Seq, f.Replay, err)
		}
		last, got = f.Seq, got+uint64(f.Tuples)
		pc.ack(t, f.Seq)
		if f.Done {
			break
		}
	}
	if got != rows {
		t.Fatalf("%d tuples across the retried open, want %d", got, rows)
	}
	if st := srv.Stats(); st.SessionsOpened != 1 || srv.SessionCount() != 1 || st.PushFramesReplayed != 3 {
		t.Fatalf("%d sessions opened, %d live, %d frames replayed; want 1, 1, 3", st.SessionsOpened, srv.SessionCount(), st.PushFramesReplayed)
	}
	deleteSession(t, ts, testName)
	assertNoRetainedBlocks(t, srv)
}

// TestCreatingOpenRefusedByFaultLeavesNoState: an injected 503 answers a
// creating open before any state exists.
func TestCreatingOpenRefusedByFaultLeavesNoState(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), Codec: wire.Binary{}, Faults: FaultConfig{Error503Prob: 1}})
	for i := 0; i < 3; i++ {
		pc, resp := creatingOpen(t, ts, testName, `{"table":"items"}`, 5, 2, 1)
		if pc != nil || resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("creating open under fault503: %v", resp.Status)
		}
	}
	if st := srv.Stats(); srv.SessionCount() != 0 || st.SessionsOpened != 0 || st.FaultsInjected.Refused != 3 || srv.cursors.Load() != 0 {
		t.Fatalf("%d live, %d opened, %d refused, %d slots; want 0, 0, 3, 0", srv.SessionCount(), st.SessionsOpened, st.FaultsInjected.Refused, srv.cursors.Load())
	}
}

// TestCreatingOpenSeveredBeforeHeadersIsAdopted: the connection is
// dropped after the session exists and before a byte of the answer — the
// 200 is only buffered — has left. What the implementation guarantees is
// that the session is the retry's to adopt: however many opens it takes
// to get a frame through, they all meet one session.
func TestCreatingOpenSeveredBeforeHeadersIsAdopted(t *testing.T) {
	const rows = 30
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows), Codec: wire.Binary{}, Seed: 5, Faults: FaultConfig{DropProb: 0.6}})
	got, next, severed, createdThenSevered := 0, uint64(1), 0, false
	for tries := 0; got < rows; tries++ {
		if tries > 200 {
			t.Fatalf("no progress past %d tuples in %d opens", got, tries)
		}
		resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/stream?size=10&window=2&from=%d", ts.URL, testName, next),
			"application/json", strings.NewReader(`{"table":"items"}`))
		if err != nil {
			severed++ // dropped before the headers
			if tries == 0 {
				createdThenSevered = true
			}
			if n := srv.SessionCount(); n != 1 {
				t.Fatalf("%d sessions live after a severed creating open, want the one a retry adopts", n)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open from=%d: %s", next, resp.Status)
		}
		// One window per open: the next open's from is the ack.
		for i := 0; i < 2; i++ {
			f, _, err := wire.ReadFrame(resp.Body, 0, nil)
			if err != nil {
				break // dropped mid-stream, or the clean end after done
			}
			if f.Seq == next {
				next, got = next+1, got+int(f.Tuples)
			}
		}
		resp.Body.Close()
	}
	if !createdThenSevered {
		t.Fatal("the open that created the session was not severed (the seed's fault stream moved?); the test proved nothing")
	}
	if st := srv.Stats(); st.SessionsOpened != 1 || srv.SessionCount() != 1 {
		t.Fatalf("%d sessions opened, %d live across %d severed opens; want 1 and 1", st.SessionsOpened, srv.SessionCount(), severed)
	}
}

// TestCreatingOpenRacesItsRetry: a retry that overtakes the open it
// repeats must not create a second session under the name — the loser's
// admission slot goes back and both streams drive the one session (the
// later takes it over). Run under -race.
func TestCreatingOpenRacesItsRetry(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 50), Codec: wire.Binary{}})
	const opens = 8
	var wg sync.WaitGroup
	for i := 0; i < opens; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sessions/"+testName+"/stream?size=10&window=1&from=1", "application/json", strings.NewReader(`{"table":"items"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("racing creating open: %s", resp.Status)
				return
			}
			// Frame 1, replayed or fresh, or the EOF of a stream taken over.
			if f, _, err := wire.ReadFrame(resp.Body, 0, nil); err == nil && f.Seq != 1 {
				t.Errorf("first frame has seq %d", f.Seq)
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.SessionsOpened != 1 || srv.SessionCount() != 1 || srv.cursors.Load() != 1 {
		t.Fatalf("%d sessions opened, %d live, %d admission slots; want 1, 1, 1", st.SessionsOpened, srv.SessionCount(), srv.cursors.Load())
	}
	deleteSession(t, ts, testName)
	if srv.cursors.Load() != 0 {
		t.Fatalf("%d admission slots after the delete", srv.cursors.Load())
	}
}

// TestStreamGroupLeftAtDone: a cursor leaves its stream group's fan-out
// at its done block, not at its DELETE — a client does not wait for a
// finished session's close before it opens the next — and exactly once
// whichever comes first.
func TestStreamGroupLeftAtDone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 20), Codec: wire.Binary{}})
	finished, _ := openSession(t, ts, `{"table":"items","stream_group":"vg-1"}`)
	abandoned, _ := openSession(t, ts, `{"table":"items","stream_group":"vg-1"}`)
	if st := srv.Stats(); st.StreamGroupsActive != 1 || st.PeakGroupStreams != 2 {
		t.Fatalf("two open cursors: %d groups active, peak %d", st.StreamGroupsActive, st.PeakGroupStreams)
	}
	resp := pullSeq(t, ts, finished, 100, 1)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	third, _ := openSession(t, ts, `{"table":"items","stream_group":"vg-1"}`)
	if st := srv.Stats(); st.StreamGroupsActive != 1 || st.PeakGroupStreams != 2 {
		t.Fatalf("a finished cursor still counts in the fan-out: %d groups active, peak %d", st.StreamGroupsActive, st.PeakGroupStreams)
	}
	for _, id := range []string{finished, abandoned, third} {
		deleteSession(t, ts, id)
	}
	if st := srv.Stats(); st.StreamGroupsActive != 0 {
		t.Fatalf("%d groups active after every cursor closed", st.StreamGroupsActive)
	}
	// Balanced, not merely clamped at zero: a fresh cursor counts as one.
	last, _ := openSession(t, ts, `{"table":"items","stream_group":"vg-1"}`)
	srv.groups.mu.Lock()
	n := srv.groups.active["vg-1"]
	srv.groups.mu.Unlock()
	if n != 1 {
		t.Fatalf("group counts %d cursors with one open", n)
	}
	deleteSession(t, ts, last)
}
