package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// TestSessionProtocolTable drives one script of block numbers through
// every place the session protocol is spoken — /next on a backend, /next
// through the gateway, the stream's from (on a session opened by POST
// /sessions and on one its first open creates), and ingest — and requires the
// same answer everywhere: service.ParseQuery and service.ClassifySeq are
// the only grammar and the only seq-window rule, and this pins that.
func TestSessionProtocolTable(t *testing.T) {
	// 25 rows in blocks of 10: blocks 1 and 2 are full, block 3 has five
	// rows and ends the result set.
	const rows, size = 25, 10
	type answer struct {
		status   int
		replayed bool
		seq      uint64 // the block number the tier says it served; 0 = not said
	}
	script := []struct {
		what     string
		seq      string // as spelled in the query; "" = the key is absent
		status   int
		replayed bool
		served   uint64
		download bool // needs an end of the result set: not for ingest
	}{
		{what: "seq 0 is not a block number", seq: "0", status: 400},
		{what: "skip ahead of the first block", seq: "2", status: 409},
		{what: "fresh", seq: "1", status: 200, served: 1},
		{what: "same-seq replay", seq: "1", status: 200, replayed: true, served: 1},
		{what: "no seq means the next block", seq: "", status: 200, served: 2},
		{what: "replay of a block asked for without seq", seq: "2", status: 200, replayed: true, served: 2},
		{what: "stale: behind the window", seq: "1", status: 409},
		{what: "skip ahead", seq: "4", status: 409},
		{what: "fresh final block", seq: "3", status: 200, served: 3},
		{what: "final block stays replayable", seq: "3", status: 200, replayed: true, served: 3},
		{what: "past done", seq: "4", status: 410, download: true},
		{what: "past done without seq", seq: "", status: 410, download: true},
	}

	post := func(t *testing.T, url string, body io.Reader) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// next speaks the response framing against base (a backend or the
	// gateway in front of one).
	next := func(base string) func(*testing.T, string) answer {
		var id string
		return func(t *testing.T, seq string) answer {
			if id == "" {
				id, _ = openSession(t, base, `{"table":"items"}`)
			}
			u := fmt.Sprintf("%s/sessions/%s/next?size=%d", base, id, size)
			if seq != "" {
				u += "&seq=" + seq
			}
			resp := post(t, u, nil)
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return answer{status: resp.StatusCode}
			}
			meta, _ := readFrame(t, resp)
			return answer{resp.StatusCode, meta.Replayed, meta.Seq}
		}
	}
	// stream opens a window-1 stream per step and classifies its first
	// frame; the next open takes the session over from it. With a name the
	// session is the client's to name and every open carries the query:
	// the first open that gets as far creates it (a refused number does
	// not stop that), and on the live name the body is not read.
	stream := func(base, name string) func(*testing.T, string) answer {
		id := name
		return func(t *testing.T, from string) answer {
			var query io.Reader
			if name != "" {
				query = strings.NewReader(`{"table":"items"}`)
			} else if id == "" {
				id, _ = openSession(t, base, `{"table":"items"}`)
			}
			u := fmt.Sprintf("%s/sessions/%s/stream?size=%d&window=1", base, id, size)
			if from != "" {
				u += "&from=" + from
			}
			resp := post(t, u, query)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return answer{status: resp.StatusCode}
			}
			f, _, err := wire.ReadFrame(resp.Body, 0, nil)
			if err != nil || f.Type != wire.FrameData {
				t.Fatalf("first frame of stream from=%q: type %d, %v", from, f.Type, err)
			}
			return answer{resp.StatusCode, f.Replay, f.Seq}
		}
	}
	// ingest uploads one valid block per step; an applied or re-acked
	// block is a 204, which the table reads as the 200 of a download.
	ingest := func(base string) func(*testing.T, string) answer {
		var id string
		var block bytes.Buffer
		schema := minidb.Schema{{Name: "id", Type: minidb.Int64}, {Name: "label", Type: minidb.String}}
		if err := (wire.XML{}).Encode(&block, schema, []minidb.Row{{minidb.NewInt(1000), minidb.NewString("uploaded")}}); err != nil {
			t.Fatal(err)
		}
		return func(t *testing.T, seq string) answer {
			if id == "" {
				resp := post(t, base+"/ingest", strings.NewReader(`{"table":"items"}`))
				var created struct {
					Session string `json:"session"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || created.Session == "" {
					t.Fatalf("open ingest: %s, %v", resp.Status, err)
				}
				resp.Body.Close()
				id = created.Session
			}
			u := fmt.Sprintf("%s/ingest/%s/block", base, id)
			if seq != "" {
				u += "?seq=" + seq
			}
			resp := post(t, u, bytes.NewReader(block.Bytes()))
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			status := resp.StatusCode
			if status == http.StatusNoContent {
				status = http.StatusOK
			}
			return answer{status: status, replayed: resp.Header.Get(service.HeaderBlockReplay) == "true"}
		}
	}

	fleet := newFleet(t, 5, rows, false)
	_, gts := newTestGateway(t, fleet[1:2], nil)
	for _, tier := range []struct {
		name     string
		ask      func(*testing.T, string) answer
		download bool
	}{
		{"next direct", next(fleet[0].ts.URL), true},
		{"next via gateway", next(gts.URL), true},
		{"stream from", stream(fleet[2].ts.URL, ""), true},
		{"stream from, created by its open", stream(fleet[4].ts.URL, "c"+strings.Repeat("5a", 16)), true},
		{"ingest", ingest(fleet[3].ts.URL), false},
	} {
		t.Run(tier.name, func(t *testing.T) {
			for i, step := range script {
				if step.download && !tier.download {
					continue
				}
				got := tier.ask(t, step.seq)
				if got.status != step.status || got.replayed != step.replayed {
					t.Fatalf("step %d (%s, seq=%q): status %d replayed=%v, want %d replayed=%v",
						i, step.what, step.seq, got.status, got.replayed, step.status, step.replayed)
				}
				if got.seq != 0 && got.seq != step.served {
					t.Fatalf("step %d (%s, seq=%q): served block %d, want %d", i, step.what, step.seq, got.seq, step.served)
				}
			}
		})
	}
}

// TestGatewayDeclinesStreams: the gateway proxies no push stream and says
// so — a 501 under its transparent-failover header, not the mux's 404,
// which a push client would have to guess about — and a declined open
// leaves no session behind.
func TestGatewayDeclinesStreams(t *testing.T) {
	fleet := newFleet(t, 1, 10, false)
	gw, gts := newTestGateway(t, fleet, nil)
	resp, err := http.Post(gts.URL+"/sessions/c"+strings.Repeat("5a", 16)+"/stream?size=5&window=2&from=1", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented || resp.Header.Get(service.HeaderGatewayTransparentFailover) != "true" {
		t.Fatalf("stream open on the gateway: %s, %s=%q; want 501 and true", resp.Status, service.HeaderGatewayTransparentFailover, resp.Header.Get(service.HeaderGatewayTransparentFailover))
	}
	if gw.SessionCount() != 0 {
		t.Fatalf("%d gateway sessions after a declined open", gw.SessionCount())
	}
}

// TestCreateBodyTable: a create body is answered alike by a backend and by
// the gateway in front of it. service.ParseCreate is the one parse: what
// it refuses the gateway answers 400 at its edge, without a backend round
// trip; a query a backend refuses (an unknown table, a bad where) comes
// back with the backend's status, tried on no second backend. Neither is a
// backend failure: every breaker stays closed (the gateway used to answer
// all of them 502 and open a breaker on each).
func TestCreateBodyTable(t *testing.T) {
	cat := testCatalog(t, 10)
	var creates atomic.Int64 // POST /sessions reaching any backend
	fleet := make([]*testBackend, 2)
	for i := range fleet {
		srv, err := service.New(service.Config{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		fleet[i] = &testBackend{ts: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/sessions" {
				creates.Add(1)
			}
			h.ServeHTTP(w, r)
		}))}
		t.Cleanup(fleet[i].ts.Close)
	}
	gw, gts := newTestGateway(t, fleet, nil) // a breaker opens on one failure
	bodies := []struct {
		what   string
		body   string
		status int
		edge   bool // refused by ParseCreate
	}{
		{"unknown key", `{"table":"items","order_by":"id"}`, http.StatusBadRequest, true},
		{"data after the object", `{"table":"items"} {}`, http.StatusBadRequest, true},
		{"no table", `{"columns":["id"]}`, http.StatusBadRequest, true},
		{"negative offset", `{"table":"items","offset":-1}`, http.StatusBadRequest, true},
		{"bad where", `{"table":"items","where":"id >"}`, http.StatusBadRequest, false},
		{"unknown table", `{"table":"nosuch"}`, http.StatusNotFound, false},
		{"valid", `{"table":"items","offset":3}`, http.StatusCreated, false},
	}
	for _, tier := range []struct{ name, url string }{{"wsblockd", fleet[0].ts.URL}, {"gateway", gts.URL}} {
		t.Run(tier.name, func(t *testing.T) {
			for _, b := range bodies {
				before := creates.Load()
				resp, err := http.Post(tier.url+"/sessions", "application/json", strings.NewReader(b.body))
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != b.status {
					t.Errorf("%s: %s (%s), want %d", b.what, resp.Status, bytes.TrimSpace(msg), b.status)
				}
				want := int64(1)
				if b.edge && tier.name == "gateway" {
					want = 0
				}
				if got := creates.Load() - before; got != want {
					t.Errorf("%s: %d backend creates, want %d", b.what, got, want)
				}
			}
		})
	}
	for _, b := range gw.Stats().Backends {
		if b.State != "closed" {
			t.Errorf("backend %s breaker %s after the refusals, want closed", b.URL, b.State)
		}
	}
}
