package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"wsopt/internal/netsim"
	"wsopt/internal/replica"
	"wsopt/internal/service"
)

// The read-ahead's contract (handleNext): a client that promises to ask
// for the same size next (hold=1) gets, for every request, what a client
// that does not promise gets for the same request — every header, every
// frame field and the payload. The scripts below run each request sequence on two fresh
// stacks, one client promising and one not, compare what the two clients
// saw, and then find every block reference given back.

// raOp is one client action of a script.
type raOp int

const (
	raFresh  raOp = iota // the next block, by number
	raLegacy             // the next block, by no number (seq absent)
	raRetry              // the newest block again
	raAhead              // a block past the next: refused, 409
	raLost               // the next block, whose write to the client fails
	raDelete             // DELETE the session
	raExpire             // the TTL janitor expires every session
	raKill               // kill the backend that served the newest block
)

type raStep struct {
	op   raOp
	size int
}

// raFleet shapes the backends behind a stack's gateway.
type raFleet struct {
	backends   int
	replicated bool
	// cost prices every block: a delay on the client's clock.
	cost netsim.CostModel
	// slow delays every upstream pull, so that a DELETE lands while the
	// gateway reads ahead.
	slow time.Duration
}

// raStack is one client's session on a gateway over its own fleet.
type raStack struct {
	t     *testing.T
	gw    *Gateway
	ts    *httptest.Server
	fleet []*testBackend
	hold  bool
	// hideHop leaves the gateway's hop (its frame fields) out of what do
	// reports: a failover a read-ahead moves by one block changes it.
	hideHop bool
	id      string
	// last is the newest block the client was served fresh; backend the
	// backend that served the newest block; roles names backends in the
	// order the client met them, since two fleets listen on other ports.
	last    uint64
	backend string
	roles   map[string]string
	// bodies are the fresh blocks' payloads, in order.
	bodies [][]byte
}

func newRAStack(t *testing.T, fl raFleet, rows int, hold, hideHop bool) *raStack {
	t.Helper()
	cat := testCatalog(t, rows)
	fleet := make([]*testBackend, fl.backends)
	for i := range fleet {
		var rlog *replica.Log
		if fl.replicated {
			rlog = replica.NewLog(1024)
		}
		srv, err := service.New(service.Config{Catalog: cat, Replica: rlog, CostModel: fl.cost, SleepScale: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if fl.slow > 0 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/next") {
					time.Sleep(fl.slow)
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		fleet[i] = &testBackend{ts: ts, rlog: rlog}
	}
	gw, ts := newTestGateway(t, fleet, nil)
	// A script that fails leaves its session open: end it, so that the
	// next script's buffer count starts from zero.
	t.Cleanup(func() { gw.ExpireIdle(time.Now().Add(time.Hour)) })
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)
	return &raStack{t: t, gw: gw, ts: ts, fleet: fleet, hold: hold, hideHop: hideHop, id: id, roles: map[string]string{}}
}

// lostWriter is a client whose connection fails under the block write.
type lostWriter struct{ *httptest.ResponseRecorder }

func (lostWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// do runs one step and reports what the client saw.
func (s *raStack) do(step raStep) string {
	t := s.t
	t.Helper()
	switch step.op {
	case raDelete:
		return "DELETE " + s.delete()
	case raExpire:
		return fmt.Sprintf("expired %d", s.gw.ExpireIdle(time.Now().Add(time.Hour)))
	case raKill:
		backendFor(t, s.fleet, s.backend).kill()
		return "killed " + s.roles[s.backend]
	}
	seq := s.last + 1
	switch step.op {
	case raLegacy:
		seq = 0
	case raRetry:
		seq = max(s.last, 1)
	case raAhead:
		seq = s.last + 2
	}
	path := "/sessions/" + s.id + "/next?" + service.Query{Size: step.size, Seq: seq, Hold: s.hold}.Encode()
	if step.op == raLost {
		w := lostWriter{httptest.NewRecorder()}
		s.gw.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		if w.Code == http.StatusOK {
			s.last++ // served, so committed: the client may only retry it
		}
		return fmt.Sprintf("lost %d", w.Code)
	}
	resp, err := http.Post(s.ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Header
	var out strings.Builder
	fmt.Fprintf(&out, "%d\n", resp.StatusCode)
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if k != "Date" {
			fmt.Fprintf(&out, "%s: %s\n", k, strings.Join(h[k], ", "))
		}
	}
	if resp.StatusCode != http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(body)
		return out.String()
	}
	meta, body := readFrame(t, resp)
	if b := backendURL(s.gw, meta); b != "" {
		if _, ok := s.roles[b]; !ok {
			s.roles[b] = fmt.Sprintf("backend#%d", len(s.roles))
		}
		s.backend = b
	}
	if !meta.Replayed {
		s.last++
		s.bodies = append(s.bodies, body)
	}
	fmt.Fprintf(&out, "frame: seq %d, %d tuples, done %v, replayed %v, delay %v ms", meta.Seq, meta.Tuples, meta.Done, meta.Replayed, meta.DelayMS)
	if !s.hideHop {
		fmt.Fprintf(&out, ", from %s after %d failovers", s.roles[backendURL(s.gw, meta)], meta.Failovers)
	}
	fmt.Fprintf(&out, "\n%s", body)
	return out.String()
}

// delete ends the session, as its client does once done, and returns
// the status the gateway answered.
func (s *raStack) delete() string { return deleteSession(s.t, s.ts.URL, s.id) }

func deleteSession(t testing.TB, base, id string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	return resp.Status
}

// statsOf reads a gateway's GET /stats.
func statsOf(t testing.TB, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// wantBlocksBack waits for every gateway's block references to be given
// back.
func wantBlocksBack(t *testing.T, gws ...*Gateway) {
	t.Helper()
	for _, g := range gws {
		waitFor(t, 5*time.Second, "every block reference given back", func() bool { return g.RetainedBlocks() == 0 })
	}
}

// runRAScript runs steps for a client that does not promise and for one
// that does, each on a stack of its own, fails on the first step where
// the two saw different responses, deletes both sessions, and returns
// the promising stack.
func runRAScript(t *testing.T, fl raFleet, rows int, hideHop bool, steps []raStep) *raStack {
	t.Helper()
	plain, held := newRAStack(t, fl, rows, false, hideHop), newRAStack(t, fl, rows, true, hideHop)
	for i, step := range steps {
		want, got := plain.do(step), held.do(step)
		if got != want {
			t.Fatalf("step %d %+v: the promising client saw\n%.600s\nwhere the other saw\n%.600s", i, step, got, want)
		}
	}
	plain.delete()
	held.delete()
	if st := plain.gw.Stats(); st.ReadAheadHits+st.ReadAheadMisses != 0 {
		t.Errorf("a client that never promised was read ahead for: %d hits, %d misses", st.ReadAheadHits, st.ReadAheadMisses)
	}
	wantBlocksBack(t, plain.gw, held.gw)
	return held
}

func repeat(op raOp, size, n int) []raStep {
	steps := make([]raStep, n)
	for i := range steps {
		steps[i] = raStep{op, size}
	}
	return steps
}

func script(parts ...[]raStep) []raStep { return slices.Concat(parts...) }

// TestGatewayReadAheadIsInvisible runs the read-ahead's paths — a hit,
// a promise broken either way, a replay while the next block is held, a
// lost write and its retry, the last block, a priced delay, a primary
// killed while a block is held, a DELETE during a read-ahead and an
// expiry — and counts what the gateway read ahead for each.
func TestGatewayReadAheadIsInvisible(t *testing.T) {
	const rows = 95
	one := raFleet{backends: 1}
	for _, tc := range []struct {
		name    string
		fleet   raFleet
		hideHop bool
		steps   []raStep
		// hits and misses are the promising stack's read-ahead counts.
		hits, misses int64
	}{
		{"fixed size", one, false,
			script(repeat(raFresh, 10, 10), []raStep{{raFresh, 10}, {raRetry, 10}}), 9, 0},
		{"broken promise: smaller", one, false,
			script(repeat(raFresh, 10, 2), []raStep{{raFresh, 5}, {raRetry, 5}}, repeat(raFresh, 5, 2)), 3, 1},
		{"broken promise: larger", one, false,
			script(repeat(raFresh, 10, 2), repeat(raFresh, 20, 5)), 4, 1},
		{"replay while the next block is held", one, false,
			[]raStep{{raFresh, 10}, {raRetry, 10}, {raFresh, 10}, {raLegacy, 10}, {raRetry, 10}, {raRetry, 40}, {raAhead, 10}, {raFresh, 10}}, 3, 0},
		{"lost write and its retry", one, false,
			[]raStep{{raFresh, 10}, {raLost, 10}, {raRetry, 10}, {raFresh, 10}, {raLost, 10}, {raRetry, 10}, {raFresh, 10}}, 2, 0},
		{"last block", one, false,
			script(repeat(raFresh, 40, 3), []raStep{{raRetry, 40}, {raFresh, 40}, {raLegacy, 40}, {raAhead, 40}}), 2, 0},
		{"priced delay", raFleet{backends: 1, cost: netsim.CostModel{LatencyMS: 2, PerTupleMS: 0.01}}, false,
			script(repeat(raFresh, 10, 4), []raStep{{raRetry, 10}, {raFresh, 10}}), 0, 0},
		{"primary killed with a block held", raFleet{backends: 2, replicated: true}, true,
			script(repeat(raFresh, 10, 2), []raStep{{raKill, 0}}, repeat(raFresh, 10, 8)), 8, 1},
		{"DELETE during a read-ahead", raFleet{backends: 1, slow: 30 * time.Millisecond}, false,
			script(repeat(raFresh, 10, 2), []raStep{{raDelete, 0}, {raFresh, 10}, {raRetry, 10}}), 1, 0},
		{"expiry with a block held", one, false,
			script(repeat(raFresh, 10, 2), []raStep{{raExpire, 0}, {raFresh, 10}}), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := runRAScript(t, tc.fleet, rows, tc.hideHop, tc.steps)
			st := held.gw.Stats()
			if st.ReadAheadHits != tc.hits || st.ReadAheadMisses != tc.misses {
				t.Errorf("read ahead: %d hits, %d misses; want %d and %d", st.ReadAheadHits, st.ReadAheadMisses, tc.hits, tc.misses)
			}
			if tc.fleet.backends > 1 {
				// Block N+1 came from memory, N+2 failed over: every key once.
				var ids []int64
				for _, b := range held.bodies {
					ids = append(ids, decodeIDs(t, b)...)
				}
				wantExactly(t, ids, rows)
				if st.Failovers != 1 {
					t.Errorf("%d failovers, want 1", st.Failovers)
				}
			}
		})
	}
}

// TestGatewayReadAheadOutlivesItsConnection: a client that closes its
// connection once it holds a block — here every time, with no keep-alive
// — must not cancel the read-ahead behind it. A cancelled one may already
// be committed on the backend, and the re-open after it would serve that
// block twice: the backend would count more tuples than the client holds.
func TestGatewayReadAheadOutlivesItsConnection(t *testing.T) {
	const rows, size = 95, 10
	s := newRAStack(t, raFleet{backends: 1, slow: 20 * time.Millisecond}, rows, true, false)
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	held := 0
	for seq := uint64(1); ; seq++ {
		q := service.Query{Size: size, Seq: seq, Hold: true}
		resp, err := hc.Post(s.ts.URL+"/sessions/"+s.id+"/next?"+q.Encode(), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		meta, body := readFrame(t, resp)
		held += len(decodeIDs(t, body))
		if meta.Done {
			break
		}
	}
	s.delete()
	if st := s.gw.Stats(); st.ReadAheadHits != 9 || st.ReadAheadMisses != 0 {
		t.Errorf("read ahead: %d hits, %d misses; want 9 and 0", st.ReadAheadHits, st.ReadAheadMisses)
	}
	resp, err := http.Get(s.fleet[0].ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if held != rows || st.TuplesServed != rows {
		t.Errorf("the client holds %d tuples, the backend served %d; want %d each", held, st.TuplesServed, rows)
	}
	wantBlocksBack(t, s.gw)
}

// FuzzGatewayReadAhead drives a promising and a plain client through the
// same random requests — fresh pulls at changing sizes, legacy pulls,
// retries, requests past the window and lost writes — and wants the same
// responses and every block reference given back.
func FuzzGatewayReadAhead(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 5, 0, 2, 10, 0, 15, 15, 2, 0})
	f.Add([]byte{0, 4, 2, 0, 1, 3, 2, 0, 4, 2, 0})
	f.Add([]byte{15, 15, 15, 2, 15, 16, 17, 0, 1})
	f.Add([]byte{5, 10, 5, 10, 4, 9, 2, 7, 0, 0, 0})
	sizes := []int{7, 10, 13, 40}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		steps := make([]raStep, len(raw))
		for i, b := range raw {
			steps[i] = raStep{raOp(b % 5), sizes[int(b/5)%len(sizes)]}
		}
		runRAScript(t, raFleet{backends: 1}, 60, false, steps)
	})
}

// TestGatewayStalledReaderHitsWriteDeadline: a promising client asks for
// a block far larger than the socket buffers and never reads it. The
// write deadline ends the handler: it takes the block back, the DELETE
// that waits for sess.mu answers, and every block reference is back.
func TestGatewayStalledReaderHitsWriteDeadline(t *testing.T) {
	old := blockWriteDeadline
	blockWriteDeadline = 300 * time.Millisecond
	t.Cleanup(func() { blockWriteDeadline = old })
	block := make([]byte, 8<<20)
	gwy, gw := newFakeGateway(t, fakeBackend(t, func(string) []byte { return block }, nil))
	id, _ := openSession(t, gw.URL, `{"table":"t"}`)

	conn, err := net.Dial("tcp", gw.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := fmt.Fprintf(conn, "POST /sessions/%s/next?size=1&seq=1&hold=1 HTTP/1.1\r\nHost: stalled\r\nContent-Length: 0\r\n\r\n", id); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the stalled block's buffer", func() bool { return gwy.RetainedBlocks() > 0 })

	started := time.Now()
	if got := deleteSession(t, gw.URL, id); got != "204 No Content" {
		t.Fatalf("DELETE behind a stalled reader: %s", got)
	}
	if waited := time.Since(started); waited > 5*time.Second {
		t.Fatalf("DELETE waited %v behind a stalled reader", waited)
	}
	wantBlocksBack(t, gwy)
	if st := statsOf(t, gw.URL); st.BlocksProxied != 0 || st.ReadAheadHits+st.ReadAheadMisses != 0 {
		t.Fatalf("after a write that timed out: %d blocks proxied, %d/%d read-ahead hits/misses; want all 0",
			st.BlocksProxied, st.ReadAheadHits, st.ReadAheadMisses)
	}
}
