package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// The read-ahead's contract (handleNext): every response is the one a
// server without it sends for the same requests. A pull is answered from
// the relation's rows alone — the block at the cursor, cut at the size
// asked — so the tests below check each response against an oracle that
// encodes exactly that slice and never sees a server.

// pullOp is how a scripted request names its block.
type pullOp int

const (
	opFresh  pullOp = iota // the next block, by number
	opLegacy               // the next block, by no number (seq absent)
	opRetry                // the newest block again (at any size)
	opAhead                // a block past the next: refused, 409
)

// pullStep is one request of a script.
type pullStep struct {
	op   pullOp
	size int
}

// pullAnswer is what one request must get back.
type pullAnswer struct {
	status int
	seq    int // echoed when the request named one
	body   []byte
	tuples int
	done   bool
	replay bool
}

// pullOracle answers a script from the relation's rows. It also predicts
// the read-ahead counters: a fresh pull that asks for the previous fresh
// pull's size prepares the next block once its own is not the last, and
// the next fresh pull takes that block (a hit) when it fits the size it
// asks for, or drops it (a miss).
type pullOracle struct {
	t      *testing.T
	codec  wire.Codec
	schema minidb.Schema
	rows   []minidb.Row

	cursor int
	last   int // newest committed block
	block  pullAnswer

	pullSize     int
	ahead        bool
	aheadTuples  int
	aheadDone    bool
	hits, misses int64
}

func newPullOracle(t *testing.T, cat *minidb.Catalog, codec wire.Codec) *pullOracle {
	t.Helper()
	it, err := cat.Execute(minidb.Query{Table: "items"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := minidb.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return &pullOracle{t: t, codec: codec, schema: it.Schema(), rows: rows}
}

// restart is a new session over the same relation; the read-ahead
// counters are the server's, so they carry on.
func (o *pullOracle) restart() {
	o.cursor, o.last, o.block, o.pullSize, o.ahead = 0, 0, pullAnswer{}, 0, false
}

// seqOf is the block number step names, 0 for none.
func (o *pullOracle) seqOf(step pullStep) int {
	switch step.op {
	case opLegacy:
		return 0
	case opRetry:
		return max(o.last, 1)
	case opAhead:
		return o.last + 2
	}
	return o.last + 1
}

// answer advances the oracle by one request for block seq (0: the next)
// of size tuples.
func (o *pullOracle) answer(seq, size int) pullAnswer {
	resolved := seq
	if seq == 0 {
		resolved = o.last + 1
	}
	switch {
	case resolved == o.last+1 && o.block.done:
		return pullAnswer{status: http.StatusGone}
	case resolved == o.last+1:
		held := size == o.pullSize
		o.pullSize = size
		left := len(o.rows) - o.cursor
		if o.ahead {
			if o.aheadTuples == size || o.aheadDone && o.aheadTuples < size {
				o.hits++
			} else {
				o.misses++
			}
			o.ahead = false
		}
		n := min(size, left)
		var buf bytes.Buffer
		if err := o.codec.Encode(&buf, o.schema, o.rows[o.cursor:o.cursor+n]); err != nil {
			o.t.Fatal(err)
		}
		o.last++
		o.cursor += n
		o.block = pullAnswer{status: http.StatusOK, seq: seq, body: buf.Bytes(), tuples: n, done: left < size}
		if left = len(o.rows) - o.cursor; held && !o.block.done {
			o.ahead, o.aheadTuples, o.aheadDone = true, min(size, left), left < size
		}
		return o.block
	case resolved == o.last && o.last > 0:
		replay := o.block
		replay.seq, replay.replay = seq, true
		return replay
	}
	return pullAnswer{status: http.StatusConflict}
}

// pull sends one request and checks it against the oracle's answer.
func (o *pullOracle) pull(ts *httptest.Server, id string, step pullStep, at string) {
	o.t.Helper()
	seq := o.seqOf(step)
	want := o.answer(seq, step.size)
	u := fmt.Sprintf("%s/sessions/%s/next?size=%d", ts.URL, id, step.size)
	if seq != 0 {
		u += "&seq=" + strconv.Itoa(seq)
	}
	resp, err := http.Post(u, "", nil)
	if err != nil {
		o.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.t.Fatal(err)
	}
	if resp.StatusCode != want.status {
		o.t.Fatalf("%s: seq %d size %d: %s, want %d", at, seq, step.size, resp.Status, want.status)
	}
	if want.status != http.StatusOK {
		return
	}
	h := resp.Header
	wantSeq := ""
	if want.seq != 0 {
		wantSeq = strconv.Itoa(want.seq)
	}
	switch {
	case !bytes.Equal(body, want.body):
		o.t.Fatalf("%s: seq %d size %d: payload is not the encode of rows [%d, %d)", at, seq, step.size, o.cursor-want.tuples, o.cursor)
	case h.Get(HeaderBlockTuples) != strconv.Itoa(want.tuples),
		h.Get(HeaderBlockDone) != strconv.FormatBool(want.done),
		h.Get(HeaderBlockSeq) != wantSeq,
		(h.Get(HeaderBlockReplay) == "true") != want.replay:
		o.t.Fatalf("%s: seq %d size %d: tuples %s done %s seq %q replay %q, want %d %v %q %v", at, seq, step.size,
			h.Get(HeaderBlockTuples), h.Get(HeaderBlockDone), h.Get(HeaderBlockSeq), h.Get(HeaderBlockReplay),
			want.tuples, want.done, wantSeq, want.replay)
	}
}

// runPullScript runs steps against each server and the oracle. A cached
// server runs them twice, on two sessions, so that the second meets the
// entries the first filled — its read-aheads' included. Every reference
// must be back once the sessions are closed.
func runPullScript(t *testing.T, cat *minidb.Catalog, steps []pullStep) {
	t.Helper()
	servers := []struct {
		name   string
		codec  wire.Codec
		cached bool
	}{
		{"binary", wire.Binary{}, false},
		{"binary+cache", wire.Binary{}, true},
		{"xml+gzip", wire.Gzip(wire.XML{}), false},
		{"xml+gzip+cache", wire.Gzip(wire.XML{}), true},
	}
	for _, rs := range servers {
		cfg := Config{Catalog: cat, Codec: rs.codec}
		if rs.cached {
			cfg.Cache = newTestCache(t, 64<<20)
		}
		srv, ts := newTestServer(t, cfg)
		o := newPullOracle(t, cat, rs.codec)
		passes := 1
		if rs.cached {
			passes = 2
		}
		for pass := 1; pass <= passes; pass++ {
			o.restart()
			id, _ := openSession(t, ts, `{"table":"items"}`)
			for i, step := range steps {
				o.pull(ts, id, step, fmt.Sprintf("%s pass %d step %d", rs.name, pass, i+1))
			}
			if st := srv.Stats(); st.ReadAheadHits != o.hits || st.ReadAheadMisses != o.misses {
				t.Fatalf("%s pass %d: read-ahead hits/misses %d/%d, want %d/%d",
					rs.name, pass, st.ReadAheadHits, st.ReadAheadMisses, o.hits, o.misses)
			}
			if code := deleteSession(t, ts, id); code != http.StatusNoContent {
				t.Fatalf("%s pass %d: delete: %d", rs.name, pass, code)
			}
		}
		assertNoRetainedBlocks(t, srv)
		ts.Close()
	}
}

// TestPullReadAheadIsInvisible drives the request shapes that meet a
// prepared block — a held size, a size that moves down, up or past the
// end, a retry or a replay while the next block is prepared, pulls that
// name no block, numbers the window refuses — on uncached and cached
// servers with the binary and the xml+gzip codec. Each case also says
// how many prepared blocks it expects used and dropped, so that a
// read-ahead that never runs fails it too.
func TestPullReadAheadIsInvisible(t *testing.T) {
	fresh := func(sizes ...int) []pullStep {
		var steps []pullStep
		for _, z := range sizes {
			steps = append(steps, pullStep{opFresh, z})
		}
		return steps
	}
	cases := []struct {
		name         string
		steps        []pullStep
		hits, misses int64
	}{
		{"fixed size", fresh(7, 7, 7, 7, 7, 7, 7, 7), 4, 0},
		{"size down", fresh(10, 10, 4, 4, 4, 4, 10), 2, 2},
		{"size up", fresh(5, 5, 12, 12, 12), 1, 1},
		{"size past the end", fresh(8, 8, 8, 100), 1, 1},
		{"the end at a block boundary", fresh(10, 10, 10, 10, 10, 10), 3, 0},
		{"the last block asked for larger", fresh(15, 15, 60), 1, 0},
		{"retry after a read-ahead", []pullStep{{opFresh, 6}, {opFresh, 6}, {opRetry, 6}, {opFresh, 6}, {opRetry, 6}, {opFresh, 6}}, 2, 0},
		{"replay of N at another size while N+1 is prepared", []pullStep{{opFresh, 6}, {opFresh, 6}, {opRetry, 9}, {opRetry, 1}, {opFresh, 6}}, 1, 0},
		{"legacy pulls", []pullStep{{opLegacy, 5}, {opLegacy, 5}, {opLegacy, 5}, {opFresh, 5}, {opLegacy, 7}, {opLegacy, 7}}, 2, 1},
		{"refused numbers", []pullStep{{opFresh, 5}, {opFresh, 5}, {opAhead, 5}, {opFresh, 5}, {opAhead, 3}, {opFresh, 5}}, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := fuzzPushCatalog(t, 11, 40)
			o := newPullOracle(t, cat, wire.Binary{})
			for _, step := range tc.steps {
				o.answer(o.seqOf(step), step.size)
			}
			if o.hits != tc.hits || o.misses != tc.misses {
				t.Fatalf("the oracle predicts %d hits and %d misses, the case says %d and %d", o.hits, o.misses, tc.hits, tc.misses)
			}
			runPullScript(t, cat, tc.steps)
		})
	}
}

// FuzzPullReadAhead runs fuzzed request scripts through runPullScript:
// every second byte picks how the request names its block, and every
// other keeps the size (below 128, so that the read-ahead runs) or moves
// it.
func FuzzPullReadAhead(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{0, 7, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(int64(2), uint8(33), []byte{0, 130, 0, 1, 0, 200, 0, 1, 0, 1, 2, 1, 0, 1})
	f.Add(int64(3), uint8(25), []byte{1, 140, 1, 1, 2, 150, 0, 1, 3, 1, 0, 1, 1, 1})
	f.Add(int64(4), uint8(0), []byte{0, 1, 0, 1, 0, 1})
	f.Add(int64(5), uint8(60), []byte{0, 139, 0, 1, 0, 129, 0, 1, 0, 255, 0, 1, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, seed int64, n uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		var steps []pullStep
		size := 1
		for i := 0; i+1 < len(script); i += 2 {
			if b := script[i+1]; b >= 128 {
				size = 1 + int(b-128)%24
			}
			steps = append(steps, pullStep{pullOp(script[i] % 4), size})
		}
		runPullScript(t, fuzzPushCatalog(t, seed, int(n)%64), steps)
	})
}

// hookCodec runs hook before each encode, numbered from 1; an error from
// the hook fails the encode.
type hookCodec struct {
	wire.Codec
	n    atomic.Int32
	hook func(n int) error
}

func (c *hookCodec) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	if err := c.hook(int(c.n.Add(1))); err != nil {
		return err
	}
	return c.Codec.Encode(w, schema, rows)
}

// readAheadArms runs body on an uncached and a cached server, each with
// a fresh hookCodec over the binary codec (the oracle encodes with the
// binary codec itself); each arm must give back every reference
// (RetainedBlocks, which counts the cache entries the service holds
// beside its pooled blocks).
func readAheadArms(t *testing.T, cat *minidb.Catalog, hook func() func(n int) error, body func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle)) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Catalog: cat, Codec: &hookCodec{Codec: wire.Binary{}, hook: hook()}}
			if cached {
				cfg.Cache = newTestCache(t, 64<<20)
			}
			srv, ts := newTestServer(t, cfg)
			body(t, srv, ts, newPullOracle(t, cat, wire.Binary{}))
			assertNoRetainedBlocks(t, srv)
		})
	}
}

// prepared reports whether sess's tail holds a read-ahead.
func prepared(sess *session) bool {
	sess.tail.mu.Lock()
	defer sess.tail.mu.Unlock()
	return sess.tail.ahead != nil
}

// TestPullReadAheadRacesDelete lands a DELETE while the read-ahead is
// inside its encode, holding sess.mu: the DELETE must not wait for it,
// and the block it finishes into the closed tail is released at once.
func TestPullReadAheadRacesDelete(t *testing.T) {
	cat := testCatalog(t, 100)
	var entered, resume chan struct{}
	hook := func() func(int) error {
		entered, resume = make(chan struct{}), make(chan struct{})
		return func(n int) error {
			if n == 3 { // block 3: the read-ahead after block 2
				close(entered)
				<-resume
			}
			return nil
		}
	}
	readAheadArms(t, cat, hook, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		o.pull(ts, id, pullStep{opFresh, 10}, "block 1")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 2")
		<-entered
		// On a connection of its own: the pulls' connection reads no
		// request until the read-ahead's handler returns.
		other := &http.Client{Transport: &http.Transport{}}
		defer other.CloseIdleConnections()
		deleted := make(chan error, 1)
		go func() {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			resp, err := other.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					err = fmt.Errorf("DELETE: %s", resp.Status)
				}
			}
			deleted <- err
		}()
		select {
		case err := <-deleted:
			if err != nil {
				close(resume)
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			close(resume)
			t.Fatal("DELETE waited on the read-ahead's session lock")
		}
		close(resume)
		resp := pullSeq(t, ts, id, 10, 3)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pull after DELETE: %s, want 404", resp.Status)
		}
	})
}

// TestPullReadAheadExpires lets the janitor expire a session whose tail
// holds a prepared block: expiry releases it as DELETE does.
func TestPullReadAheadExpires(t *testing.T) {
	cat := testCatalog(t, 100)
	readAheadArms(t, cat, func() func(int) error { return func(int) error { return nil } }, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		o.pull(ts, id, pullStep{opFresh, 10}, "block 1")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 2")
		sess, _ := srv.sessions.get(id)
		waitFor(t, func() bool { return prepared(sess) })
		if n := srv.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
			t.Fatalf("expired %d sessions, want 1", n)
		}
		if prepared(sess) {
			t.Fatal("expiry left the prepared block in the tail")
		}
	})
}

// TestPullReadAheadEncodeFailure fails the read-ahead's encode. Nothing
// is prepared and nothing is answered: the rows it pulled stay carried,
// and the next pulls are served them at the sizes they ask for.
func TestPullReadAheadEncodeFailure(t *testing.T) {
	cat := testCatalog(t, 100)
	hook := func() func(int) error {
		return func(n int) error {
			if n == 3 { // block 3: the read-ahead after block 2
				return fmt.Errorf("injected encode failure")
			}
			return nil
		}
	}
	readAheadArms(t, cat, hook, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		o.pull(ts, id, pullStep{opFresh, 10}, "block 1")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 2")
		waitFor(t, func() bool { return srv.Stats().EncodeFailures == 1 })
		o.ahead = false // the oracle's prepared block 3 failed to encode
		o.pull(ts, id, pullStep{opFresh, 7}, "block 3, smaller than the rows carried")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 4, past them")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 5")
		if st := srv.Stats(); st.ReadAheadHits != 0 || st.ReadAheadMisses != 0 || st.EncodeFailures != 1 {
			t.Fatalf("read-ahead hits/misses %d/%d, %d encode failures; want 0/0 and 1", st.ReadAheadHits, st.ReadAheadMisses, st.EncodeFailures)
		}
		deleteSession(t, ts, id)
	})
}

// TestPullReadAheadSkipsStalledReader: a held-size pull whose reader
// stalls ends at the write deadline, flush included, and reads nothing
// ahead; its retry is the retained block and the session goes on.
func TestPullReadAheadSkipsStalledReader(t *testing.T) {
	shortenWriteDeadline(t, 300*time.Millisecond)
	const rows, size = 12000, 4000 // 8 MiB blocks
	cat := fatCatalog(t, rows)
	srv, ts := newTestServer(t, Config{Catalog: cat, Codec: wire.Binary{}})
	o := newPullOracle(t, cat, wire.Binary{})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	o.pull(ts, id, pullStep{opFresh, size}, "block 1")
	stalledRequest(t, ts.Listener.Addr(), fmt.Sprintf("/sessions/%s/next?size=%d&seq=2", id, size))
	o.answer(2, size)
	o.ahead = false // the stalled write fails: nothing is read ahead
	sess, _ := srv.sessions.get(id)
	waitFor(t, func() bool {
		sess.tail.mu.Lock()
		defer sess.tail.mu.Unlock()
		return sess.tail.produced == 2
	})
	o.pull(ts, id, pullStep{opRetry, size}, "retry of the stalled block 2")
	if prepared(sess) {
		t.Fatal("a block was read ahead after a write that timed out")
	}
	o.pull(ts, id, pullStep{opFresh, size}, "block 3")
	if st := srv.Stats(); st.ReadAheadHits != 0 || st.ReadAheadMisses != 0 || st.BlocksReplayed != 1 {
		t.Fatalf("after the stall: %+v", st)
	}
	deleteSession(t, ts, id)
	assertNoRetainedBlocks(t, srv)
}

// discardWriter is a ResponseWriter that keeps nothing: the allocation
// gate counts the handler's allocations, not a recorder's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}

// readAheadAllocGate is what one steady-state pull of a held size
// allocated per block on the pull path before the read-ahead (measured
// with this harness on that code, go1.24 amd64): the read-ahead moves
// the scan and encode after the flush and may add nothing.
const readAheadAllocGate = 17

// TestReadAheadAllocGate pulls blocks of one size through the handler,
// in process, so that every block after the first two is one the
// previous request read ahead (run without the race detector:
// `scripts/verify.sh allocgate`).
func TestReadAheadAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	const size, runs = 64, 200
	srv, err := New(Config{Catalog: testCatalog(t, size*(runs+20)), Codec: wire.Binary{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	id, _ := openSession(t, ts, `{"table":"items"}`)
	ts.Close()
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/sessions/%s/next?size=%d", id, size), nil)
	for range 10 {
		h.ServeHTTP(w, req)
	}
	allocs := testing.AllocsPerRun(runs, func() { h.ServeHTTP(w, req) })
	if st := srv.Stats(); st.ReadAheadHits < runs {
		t.Fatalf("%d read-ahead hits in %d pulls: the gate did not measure the read-ahead", st.ReadAheadHits, runs)
	}
	if allocs > readAheadAllocGate {
		t.Fatalf("a read-ahead pull allocates %.1f times per block, gate is %d", allocs, readAheadAllocGate)
	}
	t.Logf("%.1f allocations per block", allocs)
}

// TestPullHoldReadsAheadFromTheFirstBlock: a pull that promises its size
// (hold=1) is read ahead for from its first block on; one that does not
// only once it has asked for the same size twice. The bytes are the same.
func TestPullHoldReadsAheadFromTheFirstBlock(t *testing.T) {
	const rows, size = 50, 10 // five blocks, the last one short of a sixth
	var bodies [2][]byte
	for i, hold := range []bool{false, true} {
		srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows)})
		id, _ := openSession(t, ts, `{"table":"items"}`)
		for seq := uint64(1); seq <= 6; seq++ {
			q := Query{Size: size, Seq: seq, Hold: hold}
			resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?"+q.Encode(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("hold=%v seq %d: %s, %v", hold, seq, resp.Status, err)
			}
			bodies[i] = append(bodies[i], body...)
		}
		// Every block after the first (hold) or the second (no hold) was
		// read ahead, the empty done marker included.
		want := int64(4)
		if hold {
			want = 5
		}
		if st := srv.Stats(); st.ReadAheadHits != want || st.ReadAheadMisses != 0 {
			t.Errorf("hold=%v: %d read-ahead hits, %d misses; want %d and 0", hold, st.ReadAheadHits, st.ReadAheadMisses, want)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("a promising client was served other bytes")
	}
}
