package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"wsopt/internal/blockcache"
	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// The traced run is only worth reading if it measures the same program
// as the untraced one. These tests pin what each wrapper must preserve.

func newTestTracer() *tracer {
	tr := newTracer(&workload{})
	tr.on.Store(true)
	return tr
}

func TestTraceCodecForwardsIdentityAndScratchPath(t *testing.T) {
	tr := newTestTracer()
	for _, name := range []string{"binary", "xml+gzip"} {
		inner, err := wire.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var c wire.Codec = &traceCodec{inner: inner, tr: tr, enc: spWireEncode, dec: spWireDecode}
		if c.Name() != inner.Name() || c.ContentType() != inner.ContentType() {
			t.Errorf("%s: wrapper is %q (%q)", name, c.Name(), c.ContentType())
		}
		if _, ok := c.(wire.ScratchDecoder); !ok {
			t.Fatalf("%s: wrapper hides the scratch decode path from wire.DecodeBlock", name)
		}
	}

	// A scratch decode through the wrapper must land in the caller's
	// scratch like the bare codec's does: decode twice, and the second
	// block's rows reuse the first's backing array.
	cat, err := tpch.Load(0.002)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceOf(cat, client.Query{Table: "customer"})
	if err != nil {
		t.Fatal(err)
	}
	c := &traceCodec{inner: wire.Binary{}, tr: tr, enc: spWireEncode, dec: spWireDecode}
	var buf bytes.Buffer
	if err := c.Encode(&buf, ref.schema, ref.rows[:64]); err != nil {
		t.Fatal(err)
	}
	sc := new(wire.Scratch)
	_, rows1, err := wire.DecodeBlock(c, bytes.NewReader(buf.Bytes()), sc)
	if err != nil {
		t.Fatal(err)
	}
	first := &rows1[0][0]
	_, rows2, err := wire.DecodeBlock(c, bytes.NewReader(buf.Bytes()), sc)
	if err != nil {
		t.Fatal(err)
	}
	if &rows2[0][0] != first {
		t.Error("second decode did not reuse the scratch: the wrapper fell back to the allocating path")
	}
	var got, want rowSum
	got.reset()
	got.add(rows2)
	want.reset()
	want.add(ref.rows[:64])
	if got != want {
		t.Error("rows decoded through the wrapper differ from the rows encoded")
	}
	if total, count := tr.snapshot(); count[spWireEncode] != 1 || count[spWireDecode] != 2 || total[spWireDecode] <= 0 {
		t.Errorf("recorded %d encode and %d decode spans, want 1 and 2", count[spWireEncode], count[spWireDecode])
	}
}

// TestTraceCodecStaysInsideAllocGate holds the wrapped binary round trip
// to the repository's own gate for the bare codec (internal/wire's
// TestBinaryRoundTripAllocGate: at most 8 allocations per block).
func TestTraceCodecStaysInsideAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const gate = 8
	cat, err := tpch.Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceOf(cat, client.Query{Table: "customer"})
	if err != nil {
		t.Fatal(err)
	}
	c := &traceCodec{inner: wire.Binary{}, tr: newTestTracer(), enc: spWireEncode, dec: spWireDecode}
	for _, n := range []int{64, 512} {
		rows := ref.rows[:n]
		var enc bytes.Buffer
		rd := bytes.NewReader(nil)
		sc := new(wire.Scratch)
		roundTrip := func() {
			enc.Reset()
			if err := c.Encode(&enc, ref.schema, rows); err != nil {
				t.Fatal(err)
			}
			rd.Reset(enc.Bytes())
			if _, got, err := wire.DecodeBlock(c, rd, sc); err != nil || len(got) != n {
				t.Fatalf("decoded %d rows (%v), want %d", len(got), err, n)
			}
		}
		for i := 0; i < 3; i++ {
			roundTrip() // size the scratch, prime the pools, grow the span log
		}
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs > gate {
			t.Errorf("wrapped binary round trip of %d rows: %.1f allocs/block, gate is %d", n, allocs, gate)
		}
	}
}

// pullRaw pulls a whole relation block by block over raw HTTP and
// returns the encoded bytes of every block, exactly as served.
func pullRaw(t *testing.T, base, table string, size int) [][]byte {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader([]byte(`{"table":"`+table+`"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var cr struct{ Session string }
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || cr.Session == "" {
		t.Fatalf("open session: %v (%s)", err, resp.Status)
	}
	var blocks [][]byte
	for seq := 1; ; seq++ {
		resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/next?size=%d&seq=%d", base, cr.Session, size, seq), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("pull seq %d: %v (%s)", seq, err, resp.Status)
		}
		blocks = append(blocks, body)
		if resp.Header.Get(service.HeaderBlockDone) == "true" {
			return blocks
		}
	}
}

// TestCacheFilledThroughWrappedCodecServesTheSameBytes shares one cache
// between a backend with the timing codec and one with the bare codec.
// The first fills it; the second must then hit on every block — same
// plan fingerprint, same keys — and serve byte-identical payloads.
func TestCacheFilledThroughWrappedCodecServesTheSameBytes(t *testing.T) {
	cat, err := tpch.Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := blockcache.New(blockcache.Config{MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(codec wire.Codec) string {
		srv, err := service.New(service.Config{Catalog: cat, Codec: codec, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	wrapped := serve(&traceCodec{inner: wire.Binary{}, tr: newTestTracer(), enc: spWireEncode, dec: spWireIngest})
	bare := serve(wire.Binary{})

	filled := pullRaw(t, wrapped, "customer", 64)
	afterFill := cache.Stats()
	if afterFill.Misses != int64(len(filled)) || afterFill.MemHits != 0 {
		t.Fatalf("fill through the wrapped codec: %d misses, %d hits over %d blocks", afterFill.Misses, afterFill.MemHits, len(filled))
	}
	hit := pullRaw(t, bare, "customer", 64)
	afterHit := cache.Stats()
	if afterHit.Misses != afterFill.Misses || afterHit.MemHits != int64(len(hit)) {
		t.Errorf("bare-codec backend missed on entries the wrapped codec filled: %d new misses, %d hits over %d blocks",
			afterHit.Misses-afterFill.Misses, afterHit.MemHits, len(hit))
	}
	if len(hit) != len(filled) {
		t.Fatalf("%d blocks through the bare codec, %d through the wrapped one", len(hit), len(filled))
	}
	for i := range hit {
		if !bytes.Equal(hit[i], filled[i]) {
			t.Fatalf("block %d differs between the wrapped and the bare codec", i+1)
		}
	}
}

func TestTimedCtlForwardsAndSamples(t *testing.T) {
	var samples []int64
	inner := core.NewStatic(77)
	c := &timedCtl{inner: inner, samples: &samples}
	if c.Size() != 77 || c.Name() != inner.Name() || c.Unwrap() != core.Controller(inner) {
		t.Errorf("wrapper reports size %d, name %q", c.Size(), c.Name())
	}
	c.Observe(1)
	c.Size()
	c.Size() // a Size with no Observe (an empty done block) opens a new wait, it records none
	c.Observe(1)
	if len(samples) != 2 || samples[0] < 0 || samples[1] < 0 {
		t.Errorf("samples %v, want one per Observe", samples)
	}

	tr := newTestTracer()
	traced := &timedCtl{inner: inner, samples: &samples, tr: tr, slot: new(reqSlot)}
	traced.Size()
	traced.Observe(1)
	if _, count := tr.snapshot(); count[spClientNext] != 1 || count[spCoreDecide] != 2 {
		t.Errorf("traced controller recorded %d client.next and %d core.decide spans, want 1 and 2", count[spClientNext], count[spCoreDecide])
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		method, path string
		class        reqClass
		sid          string
	}{
		{"POST", "/sessions", reqCreate, ""},
		{"POST", "/sessions/s0000002a/next", reqNext, "s0000002a"},
		{"POST", "/sessions/s0000002a/stream", reqStream, "s0000002a"},
		{"POST", "/sessions/s0000002a/credit", reqOther, ""},
		{"DELETE", "/sessions/s0000002a", reqOther, ""},
		{"POST", "/ingest/i00000001/block", reqIngest, ""},
		{"POST", "/ingest", reqOther, ""},
		{"GET", "/replication/feed", reqFeed, ""},
		{"GET", "/stats", reqOther, ""},
	} {
		if class, sid := classify(tc.method, tc.path); class != tc.class || sid != tc.sid {
			t.Errorf("classify(%s %s) = %d %q, want %d %q", tc.method, tc.path, class, sid, tc.class, tc.sid)
		}
	}
	if n := queryUint("size=64&seq=17", "seq"); n != 17 {
		t.Errorf("seq parsed as %d", n)
	}
	if n := queryUint("size=64", "seq"); n != 0 {
		t.Errorf("absent seq parsed as %d", n)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTestTracer()
	tr.record(spClientNext, 0, 100, nil)
	tr.record(spClientHTTP, 10, 70, nil)
	tr.record(spServiceNext, 20, 50, nil)
	tr.record(spWireEncode, 25, 35, nil)
	tr.record(spWireDecode, 70, 95, nil)
	tr.record(spClientBody, 72, 80, nil)
	self := tr.selfTimes()
	want := map[spanKind]int64{
		spClientNext: 100 - 60 - 25, spClientHTTP: 60 - 30, spServiceNext: 30 - 10,
		spWireEncode: 10, spWireDecode: 25 - 8, spClientBody: 8,
	}
	var sum int64
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self time of %s = %d, want %d", spanNames[k], self[k], w)
		}
		sum += self[k]
	}
	if sum != 100 {
		t.Errorf("self times add to %d, client.next is 100", sum)
	}
}
