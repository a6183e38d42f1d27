package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// fakeBackend speaks just enough of the block protocol for the gateway
// to proxy it: every session serves block(session id), one tuple, on
// every pull and is never done. serve writes the block's frame, so a test
// can mangle it; nil writes it whole under its Content-Length. No replication feed
// (404: alive, not replicated).
func fakeBackend(t testing.TB, block func(session string) []byte, serve func(w http.ResponseWriter, frame []byte)) *httptest.Server {
	t.Helper()
	var next atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"session":"b%d"}`, next.Add(1))
	})
	mux.HandleFunc("POST /sessions/{id}/next", func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
		f := service.BlockMeta{Seq: seq, Tuples: 1}.Frame(block(r.PathValue("id")))
		service.SetFrameHeaders(w.Header(), wire.FrameHeaderLen+len(f.Payload), false)
		if serve == nil {
			_ = wire.WriteFrame(w, f)
			return
		}
		var frame bytes.Buffer
		_ = wire.WriteFrame(&frame, f)
		serve(w, frame.Bytes())
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// newFakeGateway fronts the fake backends with a started gateway.
func newFakeGateway(t testing.TB, backends ...*httptest.Server) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	gw, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	gw.Start(ctx)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

// TestPooledBufferNotReusedWhileClientWriteInFlight is the -race
// regression for the proxied-block pool: a block's buffer goes back only
// after the client write has returned. One client stalls mid-body on a
// block far larger than the socket buffers, so the gateway's Write of it
// is parked; meanwhile another session churns the pool with blocks of a
// different fill. Were the stalled block's buffer reused, the churn's
// reads would race the parked write and the slow client would see the
// other fill.
func TestPooledBufferNotReusedWhileClientWriteInFlight(t *testing.T) {
	const size = 8 << 20
	fills := map[string]byte{}
	blocks := map[string][]byte{}
	for i, fill := range []byte{'A', 'B'} {
		id := fmt.Sprintf("b%d", i+1)
		fills[id], blocks[id] = fill, bytes.Repeat([]byte{fill}, size)
	}
	be := fakeBackend(t, func(id string) []byte { return blocks[id] }, nil)
	gwy, gw := newFakeGateway(t, be)

	slow, _ := openSession(t, gw.URL, `{"table":"t"}`)  // backend session b1: 'A'
	churn, _ := openSession(t, gw.URL, `{"table":"t"}`) // backend session b2: 'B'

	resp := pull(t, gw.URL, slow, 1, 1)
	head := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	// The slow client now sits on its unread body while the pool churns.
	for seq := uint64(1); seq <= 6; seq++ {
		_, body := readFrame(t, pull(t, gw.URL, churn, 1, seq))
		if len(body) != size || bytes.Count(body, []byte{'B'}) != size {
			t.Fatalf("churn seq %d: %d bytes, or a foreign fill", seq, len(body))
		}
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(head), resp.Body))
	_, payload := readFrame(t, resp)
	if got := bytes.Count(payload, []byte{'A'}); got != size || len(payload) != size {
		t.Fatalf("slow client read %d bytes, %d of its own fill; want %d of each", len(payload), got, size)
	}
	deleteSession(t, gw.URL, slow)
	deleteSession(t, gw.URL, churn)
	wantBlocksBack(t, gwy)
}

// TestStandbyCopiesNeverAliasPooledBuffers pins the other half of the
// ownership rule: what outlives a request — the store.Get copy a failover
// validates and the sess.standby copy repeat retries are served from — is
// never pool memory, so churning the pool after the failover cannot
// change the replayed bytes.
func TestStandbyCopiesNeverAliasPooledBuffers(t *testing.T) {
	const rows = 400
	fleet := newFleet(t, 2, rows, true)
	gwy, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	meta, committed := readFrame(t, pull(t, ts.URL, id, 100, 1))
	primary := backendURL(gwy, meta)
	waitFor(t, 2*time.Second, "replication to catch up", func() bool {
		for _, b := range gwy.Stats().Backends {
			if b.URL == primary {
				return b.Applied >= 2 && b.LagRecords == 0
			}
		}
		return false
	})
	backendFor(t, fleet, primary).kill()

	for attempt := 1; attempt <= 3; attempt++ {
		_, replayed := readFrame(t, pull(t, ts.URL, id, 100, 1))
		if !bytes.Equal(replayed, committed) {
			t.Fatalf("retry %d: replay differs from the committed block", attempt)
		}
		// Another session's blocks, of other rows, through every pooled buffer.
		other, _ := openSession(t, ts.URL, `{"table":"items","where":"id >= 200"}`)
		for seq := uint64(1); seq <= 4; seq++ {
			r := pull(t, ts.URL, other, 50, seq)
			_, _ = io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}
	if st := gwy.Stats(); st.StandbyReplays != 3 || st.Failovers != 1 {
		t.Fatalf("standby replays = %d, failovers = %d; want 3 and 1", st.StandbyReplays, st.Failovers)
	}
	deleteSession(t, ts.URL, id)
	wantBlocksBack(t, gwy)
}

// TestGatewayFailsOverOnShortBody pins store-and-forward: a backend that
// dies mid-body (fewer bytes than its Content-Length promised) costs the
// client nothing — no byte of the short block is forwarded, and the
// successor serves the block whole.
func TestGatewayFailsOverOnShortBody(t *testing.T) {
	block := bytes.Repeat([]byte("0123456789abcdef"), 64<<10) // 1 MiB
	var truncated atomic.Bool
	serve := func(w http.ResponseWriter, frame []byte) {
		if truncated.CompareAndSwap(false, true) {
			_, _ = w.Write(frame[:len(frame)/2])
			panic(http.ErrAbortHandler) // sever the connection mid-body
		}
		_, _ = w.Write(frame)
	}
	all := func(string) []byte { return block }
	_, gw := newFakeGateway(t, fakeBackend(t, all, serve), fakeBackend(t, all, serve))

	id, _ := openSession(t, gw.URL, `{"table":"t"}`)
	meta, body := readFrame(t, pull(t, gw.URL, id, 1, 1))
	if !bytes.Equal(body, block) {
		t.Fatalf("pull across a short body: %d bytes; want the whole %d-byte block", len(body), len(block))
	}
	if meta.Failovers != 1 || !truncated.Load() {
		t.Fatalf("frame failovers = %d, truncated = %v; want one failover past the short body", meta.Failovers, truncated.Load())
	}
}

// TestRePullOfOtherTuplesIsRefused: a failover that re-pulls a lost
// block (no replicated copy to serve) and gets back another number of
// tuples than the block it lost refuses it — serving it would move the
// client's cursor by the wrong count — and gives the block back.
func TestRePullOfOtherTuplesIsRefused(t *testing.T) {
	var failedOver atomic.Bool
	serve := func(w http.ResponseWriter, frame []byte) {
		if failedOver.Load() {
			f, _, _ := wire.ReadFrame(bytes.NewReader(frame), 0, nil)
			f.Tuples = 2
			_ = wire.WriteFrame(w, f)
			return
		}
		_, _ = w.Write(frame)
	}
	all := func(string) []byte { return []byte("block") }
	a, b := fakeBackend(t, all, serve), fakeBackend(t, all, serve)
	fleet := map[string]*httptest.Server{a.URL: a, b.URL: b}
	gwy, gw := newFakeGateway(t, a, b)

	id, _ := openSession(t, gw.URL, `{"table":"t"}`)
	meta, _ := readFrame(t, pull(t, gw.URL, id, 1, 1))
	fleet[backendURL(gwy, meta)].Close()
	failedOver.Store(true)

	retry := pull(t, gw.URL, id, 1, 1)
	msg, _ := io.ReadAll(retry.Body)
	retry.Body.Close()
	if retry.StatusCode != http.StatusBadGateway || !bytes.Contains(msg, []byte("re-pulled block has 2 tuples")) {
		t.Fatalf("retry after a re-pull of another size: %s %q, want 502 naming the tuple counts", retry.Status, msg)
	}
	deleteSession(t, gw.URL, id)
	wantBlocksBack(t, gwy)
}

// TestGatewayHopAllocGate bounds what one proxied block costs the whole
// process — client, gateway and backend share it — in allocated bytes.
// The body is read once into a pooled buffer and written once from it,
// so the per-block cost is net/http's request plumbing on two hops and
// nothing that scales with the block. Growing the buffer the way
// io.ReadAll does allocated ~1 MB per 256 KiB block. A promising client
// (hold) is held to the same budget: its blocks are read ahead, into the
// same pooled buffers, and it must be, or the arm proves nothing.
func TestGatewayHopAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	const (
		size   = 256 << 10
		warm   = 20
		blocks = 200
		budget = 32 << 10
	)
	block := bytes.Repeat([]byte{0x5a}, size)
	_, gw := newFakeGateway(t, fakeBackend(t, func(string) []byte { return block }, nil))
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) {
			id, _ := openSession(t, gw.URL, `{"table":"t"}`)
			var before, after runtime.MemStats
			for seq := uint64(1); seq <= warm+blocks; seq++ {
				if seq == warm+1 {
					runtime.ReadMemStats(&before)
				}
				// Read without a copy: readFrame's would be the largest cost.
				resp := pullQuery(t, gw.URL, id, service.Query{Size: 1, Seq: seq, Hold: hold})
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || n != wire.FrameHeaderLen+size {
					t.Fatalf("seq %d: %d bytes, %v", seq, n, err)
				}
			}
			runtime.ReadMemStats(&after)
			perBlock := (after.TotalAlloc - before.TotalAlloc) / blocks
			t.Logf("%d B allocated per proxied %d KiB block (budget %d)", perBlock, size>>10, budget)
			if perBlock > budget {
				t.Fatalf("%d B allocated per proxied block, budget %d", perBlock, budget)
			}
			deleteSession(t, gw.URL, id)
			if hits := statsOf(t, gw.URL).ReadAheadHits; hold != (hits > 0) {
				t.Fatalf("hold=%v, yet %d blocks were read ahead", hold, hits)
			}
		})
	}
}

// TestPlacementRule: the n-th new session (from 0) takes the first backend
// whose breaker admits traffic, cyclically from backend n mod N, and the
// rest after; a session whose backend died moves to the first healthy
// backend after it. Backends are numbered from 1, as in a block's frame.
func TestPlacementRule(t *testing.T) {
	tests := []struct {
		n      int
		down   []int // breakers open
		placed []int // where sessions 0, 1, ... start
		dead   int   // a session's primary that died
		next   int   // its failover target; 0 = none
	}{
		{n: 2, placed: []int{1, 2, 1, 2}, dead: 1, next: 2},
		{n: 2, down: []int{1}, placed: []int{2, 2, 2, 2}, dead: 1, next: 2},
		{n: 2, down: []int{1, 2}, placed: []int{1, 2, 1, 2}, dead: 1},
		{n: 3, placed: []int{1, 2, 3, 1, 2, 3}, dead: 2, next: 3},
		{n: 3, down: []int{2}, placed: []int{1, 3, 3, 1, 3, 3}, dead: 2, next: 3},
		{n: 3, down: []int{1, 2}, placed: []int{3, 3, 3, 3}, dead: 1, next: 3},
		{n: 3, down: []int{2, 3}, placed: []int{1, 1, 1, 1}, dead: 3, next: 1},
		{n: 3, down: []int{1, 2, 3}, placed: []int{1, 2, 3, 1}, dead: 2},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("n=%d down=%v", tt.n, tt.down), func(t *testing.T) {
			urls := make([]string, tt.n)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://b%d", i+1)
			}
			g, err := New(Config{Backends: urls, Breaker: resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}})
			if err != nil {
				t.Fatal(err)
			}
			down := map[int]bool{}
			for _, i := range tt.down {
				g.backends[i-1].breaker.Failure()
				down[i] = true
			}
			counts := make([]int, tt.n)
			for s := range 10 * tt.n {
				order := g.placement(uint64(s))
				if len(order) != tt.n {
					t.Fatalf("session %d tries %d backends, want all %d", s, len(order), tt.n)
				}
				if s < len(tt.placed) && order[0].idx != tt.placed[s] {
					t.Errorf("session %d placed on %d, want %d", s, order[0].idx, tt.placed[s])
				}
				for i := 1; i < tt.n; i++ {
					if down[order[i-1].idx] && !down[order[i].idx] {
						t.Fatalf("session %d tries %d before the healthy %d", s, order[i-1].idx, order[i].idx)
					}
				}
				counts[order[0].idx-1]++
			}
			if len(tt.down) == 0 && slices.Max(counts)-slices.Min(counts) > 1 {
				t.Errorf("%d sequential sessions land %v, want counts within 1", 10*tt.n, counts)
			}

			dead := g.backends[tt.dead-1]
			got := g.successor(dead)
			switch {
			case tt.next == 0 && got != nil:
				t.Errorf("failover from %d with no healthy backend took %d", tt.dead, got.idx)
			case tt.next != 0 && (got == nil || got.idx != tt.next):
				t.Errorf("failover from %d took %v, want %d", tt.dead, got, tt.next)
			}
			if tt.next == 0 {
				sess := &gwSession{id: "g00000001", backend: dead}
				if _, err := g.failover(context.Background(), sess, 1, service.Query{Size: 1}, false); err == nil || !strings.Contains(err.Error(), "no healthy backend") {
					t.Errorf("failover with no healthy backend: %v", err)
				}
			}
		})
	}
}
