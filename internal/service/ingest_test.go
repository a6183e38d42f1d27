package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

func openIngest(t *testing.T, ts *httptest.Server, body string) (id string, status int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
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

func encodeItems(t *testing.T, rows []minidb.Row) *bytes.Buffer {
	t.Helper()
	schema := minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	}
	var buf bytes.Buffer
	if err := (wire.XML{}).Encode(&buf, schema, rows); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestIngestLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0)})
	id, status := openIngest(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated || id == "" {
		t.Fatalf("create = %d", status)
	}

	rows := []minidb.Row{
		{minidb.NewInt(1), minidb.NewString("a")},
		{minidb.NewInt(2), minidb.NewString("b")},
	}
	resp, err := http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", encodeItems(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("block = %s", resp.Status)
	}
	if got := resp.Header.Get(HeaderBlockTuples); got != "2" {
		t.Fatalf("tuple header = %q", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/ingest/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr struct {
		Tuples int `json:"tuples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Tuples != 2 {
		t.Fatalf("close reported %d tuples", cr.Tuples)
	}
	tbl, _ := srv.cfg.Catalog.Table("items")
	if tbl.RowCount() != 2 {
		t.Fatalf("table has %d rows", tbl.RowCount())
	}
	st := srv.Stats()
	if st.IngestsOpened != 1 || st.BlocksIngested != 1 || st.TuplesIngested != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestCreateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0)})
	if _, status := openIngest(t, ts, `{"table":"ghost"}`); status != http.StatusNotFound {
		t.Errorf("unknown table = %d", status)
	}
	if _, status := openIngest(t, ts, `{}`); status != http.StatusBadRequest {
		t.Errorf("missing table = %d", status)
	}
	if _, status := openIngest(t, ts, `{oops`); status != http.StatusBadRequest {
		t.Errorf("bad json = %d", status)
	}
}

func TestIngestBlockErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0), MaxBlockSize: 3})
	id, _ := openIngest(t, ts, `{"table":"items"}`)

	// Unknown session.
	resp, _ := http.Post(ts.URL+"/ingest/nope/block", "application/xml", encodeItems(t, nil))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session = %s", resp.Status)
	}
	// Garbage payload.
	resp, _ = http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", strings.NewReader("junk"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage = %s", resp.Status)
	}
	// Empty block.
	resp, _ = http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", encodeItems(t, nil))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty block = %s", resp.Status)
	}
	// Oversized block.
	big := []minidb.Row{
		{minidb.NewInt(1), minidb.NewString("a")},
		{minidb.NewInt(2), minidb.NewString("b")},
		{minidb.NewInt(3), minidb.NewString("c")},
		{minidb.NewInt(4), minidb.NewString("d")},
	}
	resp, _ = http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", encodeItems(t, big))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized block = %s", resp.Status)
	}
	// Schema mismatch (wrong arity).
	var buf bytes.Buffer
	_ = (wire.XML{}).Encode(&buf, minidb.Schema{{Name: "x", Type: minidb.Int64}},
		[]minidb.Row{{minidb.NewInt(1)}})
	resp, _ = http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", &buf)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("schema mismatch = %s", resp.Status)
	}
	// Schema mismatch (right arity, wrong type).
	var buf2 bytes.Buffer
	_ = (wire.XML{}).Encode(&buf2, minidb.Schema{
		{Name: "id", Type: minidb.Float64},
		{Name: "label", Type: minidb.String},
	}, []minidb.Row{{minidb.NewFloat(1), minidb.NewString("a")}})
	resp, _ = http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", &buf2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("type mismatch = %s", resp.Status)
	}
	// Closing an unknown ingest.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/ingest/nope", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("close unknown = %s", resp.Status)
	}
}

// endlessBody is an upload that never ends; read counts what the
// server took of it.
type endlessBody struct{ read int64 }

func (b *endlessBody) Read(p []byte) (int, error) {
	b.read += int64(len(p))
	return len(p), nil
}

// TestIngestRefusesOversizedBody: an upload past the per-block byte cap
// is a 413 once the cap is crossed, not a body buffered for as long as
// the peer keeps sending.
func TestIngestRefusesOversizedBody(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0), Codec: wire.Binary{}})
	id, _ := openIngest(t, ts, `{"table":"items"}`)
	var body endlessBody
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest/"+id+"/block", &body))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("endless upload: status %d, want 413", w.Code)
	}
	if body.read > wire.MaxFramePayload+1 {
		t.Fatalf("server read %d bytes of an upload capped at %d", body.read, wire.MaxFramePayload)
	}
	if st := srv.Stats(); st.BlocksIngested != 0 {
		t.Fatalf("refused upload was ingested: %+v", st)
	}
}

// TestIngestRefusesInflateBomb: a body well under the byte cap that
// inflates past it is the same 413, not 64 MiB and counting of buffered
// whitespace.
func TestIngestRefusesInflateBomb(t *testing.T) {
	if testing.Short() {
		t.Skip("inflates 64 MiB")
	}
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0), Codec: wire.Gzip(wire.XML{})})
	id, _ := openIngest(t, ts, `{"table":"items"}`)
	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	chunk := bytes.Repeat([]byte{' '}, 64<<10)
	for n := 0; n <= wire.MaxFramePayload; n += len(chunk) {
		zw.Write(chunk)
	}
	zw.Close()
	resp, err := http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", &bomb)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("inflate bomb: status %s, want 413", resp.Status)
	}
	if st := srv.Stats(); st.BlocksIngested != 0 {
		t.Fatalf("refused upload was ingested: %+v", st)
	}
}

// TestIngestRefusesCellBombBeforeAllocating: the byte caps bound a block's
// body, not what it decodes to — a body of empty cells (<v/> is 4 bytes, a
// decoded cell 48) used to be materialised in full before MaxBlockSize was
// looked at. The cells are bounded while decoding (wire.Scratch.MaxCells,
// fed from MaxBlockSize x the table's columns), so refusing the bomb
// allocates no more than refusing a body of the same length that is not
// even XML: what both pay is the buffering of the body.
func TestIngestRefusesCellBombBeforeAllocating(t *testing.T) {
	const rows = 400_000 // 800 k cells: ~38 MB of values, in a 7.6 MB body
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0), MaxBlockSize: 1000})
	id, _ := openIngest(t, ts, `{"table":"items"}`)
	bomb := `<Envelope><Body><rowset><metadata><column name="id" type="INT64"/><column name="label" type="STRING"/></metadata><rows>` +
		strings.Repeat(`<row><v/><v/></row>`, rows) + `</rows></rowset></Body></Envelope>`
	post := func(body string) (status int, msg string, allocated uint64) {
		var before, after runtime.MemStats
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/ingest/"+id+"/block?seq=1", strings.NewReader(body))
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		return w.Code, w.Body.String(), after.TotalAlloc - before.TotalAlloc
	}
	status, msg, forBomb := post(bomb)
	if status != http.StatusBadRequest || !strings.Contains(msg, "exceeds maximum 1000") {
		t.Fatalf("cell bomb: status %d %q, want 400 naming the maximum", status, msg)
	}
	status, _, forJunk := post(strings.Repeat(" ", len(bomb)-1) + "x")
	if status != http.StatusBadRequest {
		t.Fatalf("junk body: status %d, want 400", status)
	}
	if forBomb > forJunk+1<<20 {
		t.Errorf("refusing the bomb allocated %d bytes, refusing %d bytes of junk %d: its cells were materialised", forBomb, len(bomb), forJunk)
	}
	if st := srv.Stats(); st.BlocksIngested != 0 || st.TuplesIngested != 0 {
		t.Fatalf("refused upload was ingested: %+v", st)
	}
}

// FuzzIngestBlock posts arbitrary bytes as one upload block, under every
// codec: whatever they are, the answer is an acknowledgement of a block
// within the size limit that the table then holds, or a refusal that
// leaves the table alone — never a panic, never another status.
func FuzzIngestBlock(f *testing.F) {
	codecs := []wire.Codec{wire.XML{}, wire.Binary{}, wire.Gzip(wire.XML{}), wire.Gzip(wire.Binary{})}
	good := []minidb.Row{{minidb.NewInt(1), minidb.NewString("a")}, {minidb.NewInt(2), minidb.Null(minidb.String)}}
	full := make([]minidb.Row, 9) // 8 rows fill the limit below, 9 are one past it
	for i := range full {
		full[i] = minidb.Row{minidb.NewInt(int64(i)), minidb.NewString("w")}
	}
	schema := minidb.Schema{{Name: "id", Type: minidb.Int64}, {Name: "label", Type: minidb.String}}
	for i, c := range codecs {
		for _, rows := range [][]minidb.Row{good, full[:8], full, nil} {
			var buf bytes.Buffer
			if err := c.Encode(&buf, schema, rows); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), buf.Bytes())
		}
	}
	f.Add(uint8(0), []byte{})
	// The hole this target was added for: few bytes per cell, bare and
	// packed under the same codec's +gzip (two places further on).
	for _, bomb := range []struct {
		codec uint8
		body  []byte
	}{
		{0, []byte(`<Envelope><Body><rowset><metadata><column name="id" type="INT64"/><column name="label" type="STRING"/></metadata><rows>` +
			strings.Repeat(`<row><v/><v/></row>`, 500) + `</rows></rowset></Body></Envelope>`)},
		{0, []byte(`<Envelope><Body><rowset><metadata/><rows>` + strings.Repeat(`<row/>`, 500) + `</rows></rowset></Body></Envelope>`)},
		{1, append([]byte("WSB1\x01\x01c\x00\xf4\x03"), bytes.Repeat([]byte{1}, 500)...)},
	} {
		var packed bytes.Buffer
		zw := gzip.NewWriter(&packed)
		zw.Write(bomb.body)
		zw.Close()
		f.Add(bomb.codec, bomb.body)
		f.Add(bomb.codec+2, packed.Bytes())
	}

	f.Fuzz(func(t *testing.T, codec uint8, body []byte) {
		const maxBlock = 8
		cat := testCatalog(t, 0)
		srv, err := New(Config{Catalog: cat, Codec: codecs[int(codec)%len(codecs)], MaxBlockSize: maxBlock})
		if err != nil {
			t.Fatal(err)
		}
		open := httptest.NewRecorder()
		srv.Handler().ServeHTTP(open, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(`{"table":"items"}`)))
		var cr struct{ Session string }
		if err := json.Unmarshal(open.Body.Bytes(), &cr); err != nil || cr.Session == "" {
			t.Fatalf("open ingest: %d %s", open.Code, open.Body)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest/"+cr.Session+"/block?seq=1", bytes.NewReader(body)))
		tbl, _ := cat.Table("items")
		st := srv.Stats()
		switch w.Code {
		case http.StatusNoContent:
			if n := st.TuplesIngested; n < 1 || n > maxBlock || int64(tbl.RowCount()) != n || st.BlocksIngested != 1 {
				t.Fatalf("acknowledged block: %d tuples ingested in %d blocks, table holds %d, limit %d", n, st.BlocksIngested, tbl.RowCount(), maxBlock)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			if tbl.RowCount() != 0 || st.BlocksIngested != 0 || st.TuplesIngested != 0 {
				t.Fatalf("refused (%d) block left %d rows, Stats %+v", w.Code, tbl.RowCount(), st)
			}
		default:
			t.Fatalf("status %d %s", w.Code, w.Body)
		}
	})
}

func TestIngestSeqDeduplicatesRetries(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0)})
	id, _ := openIngest(t, ts, `{"table":"items"}`)
	rows := []minidb.Row{
		{minidb.NewInt(1), minidb.NewString("a")},
		{minidb.NewInt(2), minidb.NewString("b")},
	}

	post := func(seq string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest/"+id+"/block?seq="+seq, "application/xml", encodeItems(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first block = %s", resp.Status)
	}
	// Re-sending the same seq (lost acknowledgement) is acked without
	// loading the rows again.
	resp = post("1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("duplicate block = %s", resp.Status)
	}
	if resp.Header.Get(HeaderBlockReplay) != "true" {
		t.Fatal("duplicate ack not flagged as replay")
	}
	tbl, _ := srv.cfg.Catalog.Table("items")
	if tbl.RowCount() != 2 {
		t.Fatalf("duplicate seq loaded rows twice: table has %d rows", tbl.RowCount())
	}
	st := srv.Stats()
	if st.BlocksIngested != 1 || st.BlocksIngestReplayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A seq outside the window conflicts.
	resp = post("5")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("future seq = %s, want 409", resp.Status)
	}
	// The next in-order seq applies normally.
	resp = post("2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("seq 2 = %s", resp.Status)
	}
	if tbl.RowCount() != 4 {
		t.Fatalf("table has %d rows after second block, want 4", tbl.RowCount())
	}
}

func TestIngestExpires(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0), SessionTTL: time.Millisecond})
	openIngest(t, ts, `{"table":"items"}`)
	if n := srv.ExpireIdle(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("expired %d ingest sessions, want 1", n)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10)})
	openSession(t, ts, `{"table":"items"}`)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpened != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestedRowsAreQueryable(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 0)})
	id, _ := openIngest(t, ts, `{"table":"items"}`)
	rows := []minidb.Row{{minidb.NewInt(42), minidb.NewString("pushed")}}
	resp, err := http.Post(ts.URL+"/ingest/"+id+"/block", "application/xml", encodeItems(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Pull the pushed row back through a download session.
	sid, _ := openSession(t, ts, `{"table":"items"}`)
	resp, err = http.Post(ts.URL+"/sessions/"+sid+"/next?size=10", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, got, err := (wire.XML{}).Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].I != 42 || got[0][1].S != "pushed" {
		t.Fatalf("round-trip rows = %v", got)
	}
}
