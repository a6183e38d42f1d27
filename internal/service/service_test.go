package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/wire"
)

func testCatalog(t *testing.T, rows int) *minidb.Catalog {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("item-%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	return cat
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// readFrame reads a /next 200's body: one data frame, whose metadata and
// payload it returns. Anything else — another frame type, a short frame,
// bytes after it — is an error.
func readFrame(body io.Reader) (BlockMeta, []byte, error) {
	f, _, err := wire.ReadFrame(body, 0, nil)
	if err == nil && f.Type != wire.FrameData {
		err = fmt.Errorf("frame type 0x%02x, want a data frame", f.Type)
	}
	if err == nil {
		if rest, _ := io.ReadAll(body); len(rest) > 0 {
			err = fmt.Errorf("%d bytes after the frame", len(rest))
		}
	}
	return FrameMeta(f), f.Payload, err
}

// framePayload is readFrame's payload as a reader, for a codec to decode;
// a body that is not one data frame reads as readFrame's error.
func framePayload(body io.Reader) io.Reader {
	_, payload, err := readFrame(body)
	if err != nil {
		return iotest.ErrReader(err)
	}
	return bytes.NewReader(payload)
}

func openSession(t *testing.T, ts *httptest.Server, body string) (id string, status int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", resp.StatusCode
	}
	var cr struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr.Session, resp.StatusCode
}

func TestNewRequiresCatalog(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing catalog should be rejected")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 1)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 95)})

	id, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated || id == "" {
		t.Fatalf("create failed: %d", status)
	}
	if srv.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d", srv.SessionCount())
	}

	codec := wire.XML{}
	total := 0
	for {
		resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=20", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("next = %s", resp.Status)
		}
		meta, payload, err := readFrame(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := codec.Decode(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
		if meta.Done {
			break
		}
	}
	if total != 95 {
		t.Fatalf("pulled %d rows, want 95", total)
	}

	// Pulling past the end returns 410 Gone.
	resp, _ := http.Post(ts.URL+"/sessions/"+id+"/next?size=20", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("exhausted pull = %s, want 410", resp.Status)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %s", resp.Status)
	}
	if srv.SessionCount() != 0 {
		t.Fatal("session not removed")
	}
}

func TestCreateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 1)})
	if _, status := openSession(t, ts, `{"table":"ghost"}`); status != http.StatusNotFound {
		t.Errorf("unknown table = %d, want 404", status)
	}
	if _, status := openSession(t, ts, `{}`); status != http.StatusBadRequest {
		t.Errorf("missing table = %d, want 400", status)
	}
	if _, status := openSession(t, ts, `{bad json`); status != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", status)
	}
	if _, status := openSession(t, ts, `{"table":"items","columns":["ghost"]}`); status != http.StatusNotFound {
		t.Errorf("unknown column = %d, want 404", status)
	}
}

func TestNextErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), MaxBlockSize: 100})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	for _, q := range []string{"", "?size=0", "?size=-4", "?size=abc", "?size=101"} {
		resp, err := http.Post(ts.URL+"/sessions/"+id+"/next"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("size %q = %s, want 400", q, resp.Status)
		}
	}
	resp, _ := http.Post(ts.URL+"/sessions/nope/next?size=10", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session = %s, want 404", resp.Status)
	}
}

func TestDeleteUnknownSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 1)})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown = %s", resp.Status)
	}
}

func TestProjectionOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5)})
	id, _ := openSession(t, ts, `{"table":"items","columns":["label"]}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	schema, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 1 || schema[0].Name != "label" {
		t.Fatalf("projected schema = %v", schema)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestBinaryCodecService(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 30), Codec: wire.Binary{}})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=30", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %s", ct)
	}
	_, rows, err := wire.Binary{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestLoadEndpointAndDelayInjection(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog:   testCatalog(t, 50),
		CostModel: netsim.CostModel{LatencyMS: 100, PerTupleMS: 0.5},
		// SleepScale 0: price blocks but never sleep (fast tests).
	})
	// Read default load.
	resp, _ := http.Get(ts.URL + "/load")
	var l netsim.Load
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if l.Jobs != 0 || l.Queries != 0 {
		t.Fatalf("default load = %+v", l)
	}
	// Set load.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/load", bytes.NewReader([]byte(`{"Jobs":2,"Queries":1,"Memory":0.5}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put load = %s", resp.Status)
	}
	if got := srv.Load(); got.Jobs != 2 || got.Queries != 1 || got.Memory != 0.5 {
		t.Fatalf("load not applied: %+v", got)
	}
	// Bad loads rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/load", bytes.NewReader([]byte(`{"Jobs":-1}`)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative jobs accepted: %s", resp.Status)
	}

	// Blocks report an injected delay shaped by the model.
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err = http.Post(ts.URL+"/sessions/"+id+"/next?size=10", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	meta, _, err := readFrame(resp.Body)
	if err != nil || meta.DelayMS <= 0 {
		t.Fatalf("injected delay = %v, %v", meta.DelayMS, err)
	}
}

func TestExpireIdle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), SessionTTL: 10 * time.Millisecond})
	openSession(t, ts, `{"table":"items"}`)
	openSession(t, ts, `{"table":"items"}`)
	if srv.SessionCount() != 2 {
		t.Fatal("precondition")
	}
	if n := srv.ExpireIdle(time.Now().Add(time.Second)); n != 2 {
		t.Fatalf("expired %d, want 2", n)
	}
	if srv.SessionCount() != 0 {
		t.Fatal("sessions not expired")
	}
}

// TestTupleCountHeader: the frame header of a /next body carries the
// block's tuple count and done flag.
func TestTupleCountHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 12)})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=7", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	meta, _, err := readFrame(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tuples != 7 {
		t.Fatalf("frame tuples = %d, want 7", meta.Tuples)
	}
	if meta.Done {
		t.Fatal("frame done = true, want false")
	}
}

// TestNextHeaderSet pins every header of a /next 200, fresh and replayed:
// the framing's Content-Type and the body's Content-Length, plus
// X-Block-Done: true on the final block only. No Date, and no block
// metadata: that travels in the frame.
func TestNextHeaderSet(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 12)})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	for _, step := range []struct {
		seq, size int
		done      bool
	}{{1, 7, false}, {1, 7, false}, {2, 7, true}, {2, 7, true}} {
		resp := pullSeq(t, ts, id, step.size, step.seq)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: %s, %v", step.seq, resp.Status, err)
		}
		want := http.Header{
			"Content-Type":   {"application/octet-stream"},
			"Content-Length": {strconv.Itoa(len(body))},
		}
		if step.done {
			want[HeaderBlockDone] = []string{"true"}
		}
		if !reflect.DeepEqual(resp.Header, want) {
			t.Fatalf("seq %d: headers %v, want %v", step.seq, resp.Header, want)
		}
		if meta, _, err := readFrame(bytes.NewReader(body)); err != nil || meta.Done != step.done {
			t.Fatalf("seq %d: frame done %v, %v; want %v", step.seq, meta.Done, err, step.done)
		}
	}
}

func TestWhereQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 100)})
	id, _ := openSession(t, ts, `{"table":"items","where":"id >= 10 AND id < 25"}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("where query returned %d rows, want 15", len(rows))
	}
	// A malformed clause is rejected at session creation.
	if _, status := openSession(t, ts, `{"table":"items","where":"id >="}`); status != http.StatusBadRequest {
		t.Fatalf("bad where clause = %d, want 400", status)
	}
	// LIKE over the wire.
	id, _ = openSession(t, ts, `{"table":"items","where":"label LIKE 'item-1_'"}`)
	resp, err = http.Post(ts.URL+"/sessions/"+id+"/next?size=100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, rows, err = wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // item-10 .. item-19
		t.Fatalf("LIKE query returned %d rows, want 10", len(rows))
	}
}

// TestDistinctQuery: the server has no distinct operator, so a create
// body that asks for one — or names any key the server does not know, or
// carries data after its object — is refused with a 400 on both ways a
// session is created, never answered with the rows the key would have
// changed. A body of every known key is still accepted on both.
func TestDistinctQuery(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10)})
	const known = `{"table":"items","columns":["id"],"where":"id > 1","limit":5,"offset":1,"stream_group":"g"}`
	for _, tc := range []struct {
		what, body string
		ok         bool
	}{
		{"distinct", `{"table":"items","distinct":true}`, false},
		{"another unknown key", `{"table":"items","order_by":"id"}`, false},
		{"data after the object", `{"table":"items"} {"limit":1}`, false},
		{"every known key", known, true},
	} {
		id, status := openSession(t, ts, tc.body)
		if (status == http.StatusCreated) != tc.ok || !tc.ok && status != http.StatusBadRequest {
			t.Errorf("POST /sessions, %s: %d", tc.what, status)
		}
		if id != "" {
			deleteSession(t, ts, id)
		}
		pc, resp := creatingOpen(t, ts, testName, tc.body, 5, 2, 1)
		if (pc != nil) != tc.ok || !tc.ok && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("creating stream open, %s: %d", tc.what, resp.StatusCode)
		}
		if pc != nil {
			pc.close()
			deleteSession(t, ts, testName)
		}
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("%s: %d sessions live", tc.what, n)
		}
	}
}

func TestLimitQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 100)})
	id, _ := openSession(t, ts, `{"table":"items","limit":15}`)
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?size=50", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("limited query returned %d rows", len(rows))
	}
}

// countingWriter is a ResponseWriter that samples the server's counters,
// in both of their views, from inside Write — the instant the peer could
// hold the bytes.
type countingWriter struct {
	*httptest.ResponseRecorder
	srv     *Server
	reg     *metrics.Registry
	seen    Stats
	seenReg metrics.Snapshot
	failed  error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.seen, w.seenReg = w.srv.Stats(), w.reg.Snapshot()
	if w.failed != nil {
		return 0, w.failed
	}
	return w.ResponseRecorder.Write(p)
}

// TestBlockCountedBeforeItsLastByteLeaves pins the ordering a declared
// Content-Length makes necessary: the client holds the whole block when
// Write returns, not when the handler does, so a Stats read that follows
// a received block must already include it (a chunked response hid this:
// its terminator left after the handler returned). A failed write is not
// served and must not stay counted. /metrics is a view of the same
// counters, so a scrape obeys the same ordering: every sample taken here —
// mid-write, after a write, after a failed write — is compared in both
// views.
func TestBlockCountedBeforeItsLastByteLeaves(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 40), Metrics: reg})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	post := func(path string, failed error) *countingWriter {
		w := &countingWriter{ResponseRecorder: httptest.NewRecorder(), srv: srv, reg: reg, failed: failed}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		assertViewsAgree(t, "inside the write of "+path, w.seen, w.seenReg)
		assertViewsAgree(t, "after "+path, srv.Stats(), reg.Snapshot())
		return w
	}
	next := func(seq int, failed error) *countingWriter {
		return post(fmt.Sprintf("/sessions/%s/next?size=10&seq=%d", id, seq), failed)
	}
	w := next(1, nil)
	if w.Code != http.StatusOK || w.seen.BlocksServed != 1 || w.seen.TuplesServed != 10 {
		t.Fatalf("status %d; during the write Stats had %d blocks / %d tuples served, want 1 / 10", w.Code, w.seen.BlocksServed, w.seen.TuplesServed)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length = %q on a %d-byte block", got, w.Body.Len())
	}
	next(2, errors.New("peer gone"))
	if st := srv.Stats(); st.BlocksServed != 1 || st.TuplesServed != 10 {
		t.Fatalf("after a failed write: %d blocks / %d tuples served, want 1 / 10", st.BlocksServed, st.TuplesServed)
	}

	// The push arm: a frame is in the reader's hands once Flush returns.
	// size 50 over 40 rows is one done frame, so the handler returns.
	stream := func(failed error) *countingWriter {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		return post(fmt.Sprintf("/sessions/%s/stream?size=50&window=1", id), failed)
	}
	w = stream(nil)
	if w.Code != http.StatusOK || w.seen.BlocksServed != 2 || w.seen.TuplesServed != 50 || w.seen.PushFramesSent != 1 {
		t.Fatalf("status %d; during the frame write Stats had %d blocks / %d tuples / %d frames, want 2 / 50 / 1",
			w.Code, w.seen.BlocksServed, w.seen.TuplesServed, w.seen.PushFramesSent)
	}
	stream(errors.New("peer gone"))
	if st := srv.Stats(); st.BlocksServed != 2 || st.TuplesServed != 50 || st.PushFramesSent != 1 {
		t.Fatalf("after a failed frame write: %d blocks / %d tuples / %d frames, want 2 / 50 / 1", st.BlocksServed, st.TuplesServed, st.PushFramesSent)
	}
}
