package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
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
// the read-ahead counters. A fresh pull that promises its size (hold)
// keeps two blocks prepared past its own, one that asks for the previous
// fresh pull's size keeps one; neither prepares past the last block. The
// next fresh pull takes the oldest prepared block (a hit) when it fits
// the size it asks for; otherwise every prepared block is dropped, one
// miss each.
type pullOracle struct {
	t      *testing.T
	codec  wire.Codec
	schema minidb.Schema
	rows   []minidb.Row
	// hold makes every request promise its size.
	hold bool

	cursor int
	last   int // newest committed block
	block  pullAnswer

	pullSize     int
	ahead        []aheadBlock
	hits, misses int64
}

// aheadBlock is a block the oracle expects prepared: tuples rows from
// row at, the result set's last when done. failed marks one whose encode
// the test made fail: it is no block, neither hit nor miss.
type aheadBlock struct {
	at, tuples   int
	done, failed bool
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
	o.cursor, o.last, o.block, o.pullSize, o.ahead = 0, 0, pullAnswer{}, 0, nil
}

// fail marks the prepared block at row at as one whose encode failed.
func (o *pullOracle) fail(at int) {
	for i := range o.ahead {
		if o.ahead[i].at == at {
			o.ahead[i].failed = true
			return
		}
	}
	o.t.Fatalf("the oracle has no block prepared at row %d: %+v", at, o.ahead)
}

// take is a fresh pull of size tuples meeting the prepared blocks.
func (o *pullOracle) take(size int) {
	if len(o.ahead) == 0 {
		return
	}
	if b := o.ahead[0]; !b.failed && (b.tuples == size || b.done && b.tuples < size) {
		o.hits++
		o.ahead = o.ahead[1:]
		return
	}
	for _, b := range o.ahead {
		if !b.failed {
			o.misses++
		}
	}
	o.ahead = nil
}

// readAhead tops the prepared blocks up to depth blocks of size tuples.
func (o *pullOracle) readAhead(size, depth int) {
	at := o.cursor
	for _, b := range o.ahead {
		if b.done {
			return
		}
		at += b.tuples
	}
	for len(o.ahead) < depth {
		left := len(o.rows) - at
		b := aheadBlock{at: at, tuples: min(size, left), done: left < size}
		o.ahead = append(o.ahead, b)
		if b.done {
			return
		}
		at += b.tuples
	}
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
		depth := 0
		switch {
		case o.hold:
			depth = 2
		case size == o.pullSize:
			depth = 1
		}
		o.pullSize = size
		o.take(size)
		left := len(o.rows) - o.cursor
		n := min(size, left)
		var buf bytes.Buffer
		if err := o.codec.Encode(&buf, o.schema, o.rows[o.cursor:o.cursor+n]); err != nil {
			o.t.Fatal(err)
		}
		o.last++
		o.cursor += n
		o.block = pullAnswer{status: http.StatusOK, seq: seq, body: buf.Bytes(), tuples: n, done: left < size}
		if depth > 0 && !o.block.done {
			o.readAhead(size, depth)
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
	q := Query{Size: step.size, Seq: uint64(seq), Hold: o.hold}
	resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?"+q.Encode(), "", nil)
	if err != nil {
		o.t.Fatal(err)
	}
	if resp.StatusCode != want.status {
		resp.Body.Close()
		o.t.Fatalf("%s: seq %d size %d: %s, want %d", at, seq, step.size, resp.Status, want.status)
	}
	if want.status != http.StatusOK {
		resp.Body.Close()
		return
	}
	m, body, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.t.Fatal(err)
	}
	switch {
	case !bytes.Equal(body, want.body):
		o.t.Fatalf("%s: seq %d size %d: payload is not the encode of rows [%d, %d)", at, seq, step.size, o.cursor-want.tuples, o.cursor)
	case m.Tuples != want.tuples, m.Done != want.done, m.Seq != uint64(want.seq), m.Replayed != want.replay:
		o.t.Fatalf("%s: seq %d size %d: tuples %d done %v seq %d replay %v, want %d %v %d %v", at, seq, step.size,
			m.Tuples, m.Done, m.Seq, m.Replayed, want.tuples, want.done, want.seq, want.replay)
	}
}

// runPullScript runs steps against each server and the oracle, once
// with requests that only repeat their size and once with requests that
// promise it (hold). A cached server runs them twice, on two sessions, so
// that the second meets the entries the first filled — its read-aheads'
// included. Every reference must be back once the sessions are closed.
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
		for _, hold := range []bool{false, true} {
			cfg := Config{Catalog: cat, Codec: rs.codec}
			if rs.cached {
				cfg.Cache = newTestCache(t, 64<<20)
			}
			srv, ts := newTestServer(t, cfg)
			o := newPullOracle(t, cat, rs.codec)
			o.hold = hold
			passes := 1
			if rs.cached {
				passes = 2
			}
			for pass := 1; pass <= passes; pass++ {
				o.restart()
				id, _ := openSession(t, ts, `{"table":"items"}`)
				for i, step := range steps {
					o.pull(ts, id, step, fmt.Sprintf("%s hold=%v pass %d step %d", rs.name, hold, pass, i+1))
				}
				if st := srv.Stats(); st.ReadAheadHits != o.hits || st.ReadAheadMisses != o.misses {
					t.Fatalf("%s hold=%v pass %d: read-ahead hits/misses %d/%d, want %d/%d",
						rs.name, hold, pass, st.ReadAheadHits, st.ReadAheadMisses, o.hits, o.misses)
				}
				if code := deleteSession(t, ts, id); code != http.StatusNoContent {
					t.Fatalf("%s hold=%v pass %d: delete: %d", rs.name, hold, pass, code)
				}
			}
			if n := srv.RetainedBlocks(); n != 0 {
				t.Fatalf("%s hold=%v: %d block references still held after every session closed", rs.name, hold, n)
			}
			ts.Close()
		}
	}
}

// TestPullReadAheadIsInvisible drives the request shapes that meet a
// prepared block — a held size, a size that moves down, up or past the
// end, a retry or a replay while the next blocks are prepared, pulls that
// name no block, numbers the window refuses — on uncached and cached
// servers with the binary and the xml+gzip codec, repeating sizes and
// promising them. Each case also says how many prepared blocks it
// expects used and dropped either way, so that a read-ahead that never
// runs, or runs one block deep where it should run two, fails it too.
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
		hits, misses int64 // repeating the size
		// promising it: two blocks kept prepared
		holdHits, holdMisses int64
	}{
		{"fixed size", fresh(7, 7, 7, 7, 7, 7, 7, 7), 4, 0, 5, 0},
		{"size down", fresh(10, 10, 4, 4, 4, 4, 10), 2, 2, 4, 4},
		{"size up", fresh(5, 5, 12, 12, 12), 1, 1, 3, 2},
		{"size past the end", fresh(8, 8, 8, 100), 1, 1, 2, 2},
		{"the end at a block boundary", fresh(10, 10, 10, 10, 10, 10), 3, 0, 4, 0},
		{"the last block asked for larger", fresh(15, 15, 60), 1, 0, 2, 0},
		{"retry after a read-ahead", []pullStep{{opFresh, 6}, {opFresh, 6}, {opRetry, 6}, {opFresh, 6}, {opRetry, 6}, {opFresh, 6}}, 2, 0, 3, 0},
		{"replay of N at another size while N+1 is prepared", []pullStep{{opFresh, 6}, {opFresh, 6}, {opRetry, 9}, {opRetry, 1}, {opFresh, 6}}, 1, 0, 2, 0},
		{"legacy pulls", []pullStep{{opLegacy, 5}, {opLegacy, 5}, {opLegacy, 5}, {opFresh, 5}, {opLegacy, 7}, {opLegacy, 7}}, 2, 1, 4, 2},
		{"refused numbers", []pullStep{{opFresh, 5}, {opFresh, 5}, {opAhead, 5}, {opFresh, 5}, {opAhead, 3}, {opFresh, 5}}, 2, 0, 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := fuzzPushCatalog(t, 11, 40)
			for _, hold := range []bool{false, true} {
				o := newPullOracle(t, cat, wire.Binary{})
				o.hold = hold
				for _, step := range tc.steps {
					o.answer(o.seqOf(step), step.size)
				}
				hits, misses := tc.hits, tc.misses
				if hold {
					hits, misses = tc.holdHits, tc.holdMisses
				}
				if o.hits != hits || o.misses != misses {
					t.Fatalf("hold=%v: the oracle predicts %d hits and %d misses, the case says %d and %d", hold, o.hits, o.misses, hits, misses)
				}
			}
			runPullScript(t, cat, tc.steps)
		})
	}
}

// FuzzPullReadAhead runs fuzzed request scripts through runPullScript,
// repeating sizes and promising them: every second byte picks how the
// request names its block, and every other keeps the size (below 128, so
// that the read-ahead runs) or moves it.
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

// hookCodec runs hook before each encode with the id of the block's
// first row (-1 for an empty block); an error from the hook fails the
// encode. The read-ahead's encodes run concurrently, so a test names the
// encode it steers by its rows, not by its turn.
type hookCodec struct {
	wire.Codec
	hook func(first int64) error
}

func (c *hookCodec) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	first := int64(-1)
	if len(rows) > 0 {
		first = rows[0][0].I
	}
	if err := c.hook(first); err != nil {
		return err
	}
	return c.Codec.Encode(w, schema, rows)
}

// readAheadArms runs body on an uncached and a cached server, each with
// requests that repeat their size (one block read ahead) and with
// requests that promise it (o.hold: two), each arm with a fresh hookCodec
// over the binary codec (the oracle encodes with the binary codec
// itself); each arm must give back every reference (RetainedBlocks,
// which counts the cache entries the service holds beside its pooled
// blocks).
func readAheadArms(t *testing.T, cat *minidb.Catalog, hook func(hold bool) func(first int64) error, body func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle)) {
	for _, cached := range []bool{false, true} {
		t.Run(map[bool]string{false: "uncached", true: "cached"}[cached], func(t *testing.T) {
			for _, hold := range []bool{false, true} {
				t.Run(map[bool]string{false: "repeat", true: "hold"}[hold], func(t *testing.T) {
					cfg := Config{Catalog: cat, Codec: &hookCodec{Codec: wire.Binary{}, hook: hook(hold)}}
					if cached {
						cfg.Cache = newTestCache(t, 64<<20)
					}
					srv, ts := newTestServer(t, cfg)
					o := newPullOracle(t, cat, wire.Binary{})
					o.hold = hold
					body(t, srv, ts, o)
					if n := srv.RetainedBlocks(); n != 0 {
						t.Fatalf("%d block references still held", n)
					}
				})
			}
		})
	}
}

// openAhead opens a session and pulls size-10 blocks until the read-ahead
// has started on rows [20, 30): one pull promising its size (it reads
// [10, 20) and [20, 30) ahead), or two repeating it.
func openAhead(t *testing.T, ts *httptest.Server, o *pullOracle) string {
	t.Helper()
	id, _ := openSession(t, ts, `{"table":"items"}`)
	o.pull(ts, id, pullStep{opFresh, 10}, "block 1")
	if !o.hold {
		o.pull(ts, id, pullStep{opFresh, 10}, "block 2")
	}
	return id
}

// await receives from ch, or lets the held encodes go (release) and
// fails after 5 s: a read-ahead that never starts the encode a test
// steers fails the test instead of hanging it.
func await(t *testing.T, ch <-chan struct{}, release func(), what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		release()
		t.Fatalf("%s: not reached in 5 s", what)
	}
}

// preparedBlocks counts the read-ahead blocks sess's tail holds. It
// reads each slot's rb alone, the one field tail.mu guards: the rest of
// a slot belongs to the handler under sess.mu.
func preparedBlocks(sess *session) int {
	sess.tail.mu.Lock()
	defer sess.tail.mu.Unlock()
	n := 0
	for i := range sess.tail.ahead {
		if sess.tail.ahead[i].rb != nil {
			n++
		}
	}
	return n
}

// TestPullReadAheadRacesDelete lands a DELETE while every read-ahead
// encode is held inside the codec — one, or both of a promise's: the
// DELETE must not wait for them, and the blocks they finish into the
// closed tail are released at once, so the count is exact as soon as
// they return.
func TestPullReadAheadRacesDelete(t *testing.T) {
	cat := testCatalog(t, 100)
	var entered, resume chan struct{}
	hook := func(hold bool) func(int64) error {
		entered, resume = make(chan struct{}, 2), make(chan struct{})
		from := int64(20) // the one block read ahead after block 2
		if hold {
			from = 10 // both blocks read ahead after block 1
		}
		return func(first int64) error {
			if first >= from {
				entered <- struct{}{}
				<-resume
			}
			return nil
		}
	}
	readAheadArms(t, cat, hook, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id := openAhead(t, ts, o)
		for range len(o.ahead) {
			await(t, entered, func() { close(resume) }, "a read-ahead encode")
		}
		deleted := make(chan error, 1)
		go func() {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
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
			t.Fatal("DELETE waited on the read-ahead's encodes")
		}
		close(resume)
		if n := srv.RetainedBlocks(); n != 0 {
			t.Fatalf("%d references held once the encodes finished into the closed tail", n)
		}
		resp := pullSeq(t, ts, id, 10, o.last+1)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pull after DELETE: %s, want 404", resp.Status)
		}
	})
}

// TestPullReadAheadExpires lets the janitor expire a session whose tail
// holds its prepared blocks: expiry releases them as DELETE does.
func TestPullReadAheadExpires(t *testing.T) {
	cat := testCatalog(t, 100)
	none := func(bool) func(int64) error { return func(int64) error { return nil } }
	readAheadArms(t, cat, none, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id := openAhead(t, ts, o)
		sess, _ := srv.sessions.get(id)
		waitFor(t, func() bool { return preparedBlocks(sess) == len(o.ahead) })
		if n := srv.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
			t.Fatalf("expired %d sessions, want 1", n)
		}
		if n := preparedBlocks(sess); n != 0 {
			t.Fatalf("expiry left %d prepared blocks in the tail", n)
		}
	})
}

// TestPullReadAheadEncodeFailure fails the read-ahead's encode of rows
// [20, 30): the one block read ahead, or the second of a promise's.
// Nothing is answered from it: its rows stay carried, and the next pulls
// are served them at the sizes they ask for. A failed block is neither a
// hit nor a miss; the blocks prepared after it are misses.
func TestPullReadAheadEncodeFailure(t *testing.T) {
	cat := testCatalog(t, 100)
	hook := func(bool) func(int64) error {
		var failed atomic.Bool
		return func(first int64) error {
			if first == 20 && failed.CompareAndSwap(false, true) {
				return fmt.Errorf("injected encode failure")
			}
			return nil
		}
	}
	readAheadArms(t, cat, hook, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		id := openAhead(t, ts, o)
		waitFor(t, func() bool { return srv.Stats().EncodeFailures == 1 })
		o.fail(20)
		if o.hold {
			o.pull(ts, id, pullStep{opFresh, 10}, "block 2, the first block read ahead")
		}
		o.pull(ts, id, pullStep{opFresh, 7}, "block 3, smaller than the rows carried")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 4, past them")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 5")
		// Promising: block 2 is a hit; block 3 meets the failed block and
		// drops [30, 40); block 4 drops the two blocks of 7 read ahead
		// after block 3; block 5 is a hit.
		hits, misses := int64(0), int64(0)
		if o.hold {
			hits, misses = 2, 3
		}
		st := srv.Stats()
		if o.hits != hits || o.misses != misses {
			t.Fatalf("the oracle predicts %d hits and %d misses, want %d and %d", o.hits, o.misses, hits, misses)
		}
		if st.ReadAheadHits != hits || st.ReadAheadMisses != misses || st.EncodeFailures != 1 {
			t.Fatalf("read-ahead hits/misses %d/%d, %d encode failures; want %d/%d and 1", st.ReadAheadHits, st.ReadAheadMisses, st.EncodeFailures, hits, misses)
		}
		deleteSession(t, ts, id)
	})
}

// TestPullReadAheadEncodesItsOwnRows holds the encode of rows [20, 30),
// the second block a promise reads ahead, until the next pull's
// read-ahead has scanned [30, 40): that scan moves the rows the session
// carries, so an encode that read them there, and not from its slot's
// own copy, would encode the wrong rows.
func TestPullReadAheadEncodesItsOwnRows(t *testing.T) {
	cat := testCatalog(t, 100)
	var scanned, resume chan struct{}
	hook := func(bool) func(int64) error {
		scanned, resume = make(chan struct{}), make(chan struct{})
		return func(first int64) error {
			switch first {
			case 20:
				<-resume
			case 30:
				close(scanned)
			}
			return nil
		}
	}
	readAheadArms(t, cat, hook, func(t *testing.T, srv *Server, ts *httptest.Server, o *pullOracle) {
		if !o.hold {
			close(resume) // one block deep, no scan follows an encode still running
			return
		}
		id := openAhead(t, ts, o)
		o.pull(ts, id, pullStep{opFresh, 10}, "block 2")
		await(t, scanned, func() { close(resume) }, "the encode of [30, 40)")
		close(resume)
		o.pull(ts, id, pullStep{opFresh, 10}, "block 3, encoded while block 4 was scanned")
		o.pull(ts, id, pullStep{opFresh, 10}, "block 4")
		deleteSession(t, ts, id)
	})
}

// TestPullReadAheadCancelledBlockDropsTheRest cancels a promising pull
// inside its priced delay after it took the first block read ahead. The
// block is not committed, so the block prepared after it would follow a
// block that never was: it is dropped, and the retry and the pull after
// it get exactly the rows at the cursor.
func TestPullReadAheadCancelledBlockDropsTheRest(t *testing.T) {
	cat := testCatalog(t, 100)
	srv, ts := newTestServer(t, Config{Catalog: cat, Codec: wire.Binary{}, CostModel: netsim.CostModel{LatencyMS: 200}, SleepScale: 1})
	o := newPullOracle(t, cat, wire.Binary{})
	o.hold = true
	id, _ := openSession(t, ts, `{"table":"items"}`)
	o.pull(ts, id, pullStep{opFresh, 10}, "block 1")

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/sessions/"+id+"/next?"+Query{Size: 10, Seq: 2, Hold: true}.Encode(), nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
		close(returned)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-returned
	// The cancelled pull took block 2 (a hit) and dropped block 3 (a
	// miss); the oracle, which never saw it, still holds both.
	o.ahead = nil
	o.hits, o.misses = 1, 1

	o.pull(ts, id, pullStep{opFresh, 10}, "block 2 again")
	o.pull(ts, id, pullStep{opFresh, 10}, "block 3")
	if st := srv.Stats(); st.ReadAheadHits != o.hits || st.ReadAheadMisses != o.misses || st.BlocksServed != 3 {
		t.Fatalf("read-ahead hits/misses %d/%d, %d blocks served; want %d/%d and 3", st.ReadAheadHits, st.ReadAheadMisses, st.BlocksServed, o.hits, o.misses)
	}
	deleteSession(t, ts, id)
	if n := srv.RetainedBlocks(); n != 0 {
		t.Fatalf("%d block references still held", n)
	}
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
	o.ahead = nil // the stalled write fails: nothing is read ahead
	sess, _ := srv.sessions.get(id)
	waitFor(t, func() bool {
		sess.tail.mu.Lock()
		defer sess.tail.mu.Unlock()
		return sess.tail.produced == 2
	})
	o.pull(ts, id, pullStep{opRetry, size}, "retry of the stalled block 2")
	if n := preparedBlocks(sess); n != 0 {
		t.Fatalf("%d blocks were read ahead after a write that timed out", n)
	}
	o.pull(ts, id, pullStep{opFresh, size}, "block 3")
	if st := srv.Stats(); st.ReadAheadHits != 0 || st.ReadAheadMisses != 0 || st.BlocksReplayed != 1 {
		t.Fatalf("after the stall: %+v", st)
	}
	deleteSession(t, ts, id)
	assertNoRetainedBlocks(t, srv)
}

// discardWriter is a ResponseWriter that keeps nothing: the allocation
// gate counts the handler's allocations, not a recorder's. It takes the
// block write's deadline as a net/http response does, so that
// http.ResponseController does not build an ErrNotSupported error per
// call.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header              { return w.h }
func (w *discardWriter) Write(p []byte) (int, error)      { return len(p), nil }
func (w *discardWriter) WriteHeader(int)                  {}
func (w *discardWriter) Flush()                           {}
func (w *discardWriter) SetWriteDeadline(time.Time) error { return nil }

// readAheadAllocGate is what one steady-state pull allocates per block
// on the pull path (measured with this harness, go1.24 amd64, whether
// the size is repeated or never read ahead for; a promise allocates one
// more, the hold=1 entry of the parsed query): the read-ahead moves the
// scan and encode after the flush, and the encode off the handler, and
// may add nothing. Of the 8, the block's response costs three — its
// Content-Length value and its slice, and the frame header WriteFrame
// hands the writer — and the rest are the route, the query and the
// block's entry.
const readAheadAllocGate = 8

// TestReadAheadAllocGate pulls blocks through the handler, in process:
// of one size, so that every block after the first few is one an earlier
// request read ahead, repeating the size (one block deep) and promising
// it (two); and of sizes that alternate without a promise, so that none
// is, and the handler prepares every block itself. Run without the race
// detector: `scripts/verify.sh allocgate`.
func TestReadAheadAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	const size, runs = 64, 200
	for _, arm := range []struct {
		name  string
		hold  bool
		sizes []int
	}{
		{"hold=false", false, []int{size}},
		{"hold=true", true, []int{size}},
		{"never-read-ahead", false, []int{size, size - 1}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			srv, err := New(Config{Catalog: testCatalog(t, size*(runs+20)), Codec: wire.Binary{}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			id, _ := openSession(t, ts, `{"table":"items"}`)
			ts.Close()
			h := srv.Handler()
			w := &discardWriter{h: http.Header{}}
			var reqs []*http.Request
			for _, n := range arm.sizes {
				reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/sessions/"+id+"/next?"+Query{Size: n, Hold: arm.hold}.Encode(), nil))
			}
			pulls := 0
			pull := func() {
				h.ServeHTTP(w, reqs[pulls%len(reqs)])
				pulls++
			}
			for range 10 {
				pull()
			}
			allocs := testing.AllocsPerRun(runs, pull)
			st := srv.Stats()
			if len(arm.sizes) == 1 && st.ReadAheadHits < runs {
				t.Fatalf("%d read-ahead hits in %d pulls: the gate did not measure the read-ahead", st.ReadAheadHits, runs)
			}
			if len(arm.sizes) > 1 && (st.ReadAheadHits != 0 || st.ReadAheadMisses != 0) {
				t.Fatalf("%d read-ahead hits and %d misses with alternating sizes: the gate did not measure the handler's own prepare", st.ReadAheadHits, st.ReadAheadMisses)
			}
			gate := readAheadAllocGate
			if arm.hold {
				gate++
			}
			if allocs > float64(gate) {
				t.Fatalf("a pull allocates %.1f times per block, gate is %d", allocs, gate)
			}
			t.Logf("%.1f allocations per block", allocs)
		})
	}
}

// TestPullHoldReadsAheadFromTheFirstBlock: a pull that promises its size
// (hold=1) is read ahead for from its first block on, two blocks deep;
// one that does not only once it has asked for the same size twice, one
// block deep. So a change of size drops two prepared blocks or one. The
// bytes are the same.
func TestPullHoldReadsAheadFromTheFirstBlock(t *testing.T) {
	// Three blocks of 10, then four of 5 and the empty done marker.
	const rows = 50
	sizes := []int{10, 10, 10, 5, 5, 5, 5, 5}
	var bodies [2][]byte
	for i, hold := range []bool{false, true} {
		srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, rows)})
		id, _ := openSession(t, ts, `{"table":"items"}`)
		for seq, size := range sizes {
			q := Query{Size: size, Seq: uint64(seq + 1), Hold: hold}
			resp, err := http.Post(ts.URL+"/sessions/"+id+"/next?"+q.Encode(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			_, body, err := readFrame(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("hold=%v seq %d: %s, %v", hold, seq+1, resp.Status, err)
			}
			bodies[i] = append(bodies[i], body...)
		}
		// Repeating: blocks 3, 6, 7 and 8 were read ahead, the empty done
		// marker included, and the size change at block 4 dropped one.
		// Promising: every block but the first and block 4, whose size
		// change dropped the two blocks of 10 read ahead.
		hits, misses := int64(4), int64(1)
		if hold {
			hits, misses = 6, 2
		}
		if st := srv.Stats(); st.ReadAheadHits != hits || st.ReadAheadMisses != misses {
			t.Errorf("hold=%v: %d read-ahead hits, %d misses; want %d and %d", hold, st.ReadAheadHits, st.ReadAheadMisses, hits, misses)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("a promising client was served other bytes")
	}
}
