package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wsopt/internal/minidb"
	"wsopt/internal/tpch"
)

// Benchmarks and allocation gates for the wire hot path. The round-trip
// benchmark is the codec half of the paper's transfer-cost model: for a
// given block size, the per-block CPU cost is encode + decode, and the
// adaptive controller's gains evaporate if that cost is dominated by
// allocator churn. Run as `go test -run '^$' -bench CodecRoundTrip
// -benchmem ./internal/wire`; `make allocgate` holds the allocation
// budget, and bench/ reports the same encode and decode inside a real
// transfer (wire.encode_ms_per_block, wire.decode_ms_per_block).

// benchBlockSizes are the block sizes (rows per block) the round-trip
// benchmark sweeps. They bracket the sizes the runtime controller
// actually chooses: small probing blocks, the mid-range steady state,
// and large blocks on clean links.
var benchBlockSizes = []int{64, 512, 4096}

// benchBlock builds a deterministic sample block of n rows over the
// standard 4-column schema.
func benchBlock(n int) (minidb.Schema, []minidb.Row) {
	rng := rand.New(rand.NewSource(42))
	return sampleSchema(), sampleRows(n, rng)
}

// customerBlock returns the first n rows of the TPC-H CUSTOMER relation:
// the rows bench/'s cold-xmlgz workload pulls, ~240 B of XML each, so a
// 512-row block is 122 KB.
func customerBlock(tb testing.TB, n int) (minidb.Schema, []minidb.Row) {
	tb.Helper()
	return tpchBlock(tb, tpch.GenCustomer, tpch.CustomersPerSF, n)
}

// ordersBlock returns the first n rows of the TPC-H ORDERS relation: the
// rows bench/'s gate-hot-binary workload pulls, 2048 to a block.
func ordersBlock(tb testing.TB, n int) (minidb.Schema, []minidb.Row) {
	tb.Helper()
	return tpchBlock(tb, tpch.GenOrders, tpch.OrdersPerSF, n)
}

func tpchBlock(tb testing.TB, gen func(*minidb.Catalog, float64) (*minidb.Table, error), perSF float64, n int) (minidb.Schema, []minidb.Row) {
	tb.Helper()
	table, err := gen(minidb.NewCatalog(), float64(n+1)/perSF)
	if err != nil {
		tb.Fatal(err)
	}
	rows, _, err := minidb.NextBlock(table.Scan(), n)
	if err != nil || len(rows) != n {
		tb.Fatalf("%s block of %d rows: %d rows, err %v", table.Name(), n, len(rows), err)
	}
	return table.Schema(), rows
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	for _, c := range codecs() {
		for _, n := range benchBlockSizes {
			b.Run(fmt.Sprintf("%s/rows=%d", c.Name(), n), func(b *testing.B) {
				schema, rows := benchBlock(n)
				var enc bytes.Buffer
				if err := c.Encode(&enc, schema, rows); err != nil {
					b.Fatal(err)
				}
				wireBytes := enc.Len()
				rd := bytes.NewReader(nil)
				scratch := new(Scratch)
				b.SetBytes(int64(wireBytes))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc.Reset()
					if err := c.Encode(&enc, schema, rows); err != nil {
						b.Fatal(err)
					}
					rd.Reset(enc.Bytes())
					_, got, err := DecodeBlock(c, rd, scratch)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != n {
						b.Fatalf("decoded %d rows, want %d", len(got), n)
					}
				}
				b.ReportMetric(float64(wireBytes)/float64(n), "wireB/row")
			})
		}
	}
}

// BenchmarkDecodeScratch isolates the decode half: the server encodes
// once (and usually serves the bytes from its cache), the client decodes
// every block — this is the per-pull client cost, for the lean codec,
// the paper's SOAP codec and the SOAP codec under transport compression.
// Beside the synthetic sweep it decodes the blocks of two bench/
// workloads: gate-hot-binary's 2048-row orders block and
// hot-binary-small's 64-row customer block.
func BenchmarkDecodeScratch(b *testing.B) {
	for _, c := range []Codec{Binary{}, XML{}, Gzip(XML{})} {
		for _, n := range benchBlockSizes {
			b.Run(fmt.Sprintf("%s/rows=%d", c.Name(), n), func(b *testing.B) {
				schema, rows := benchBlock(n)
				benchDecode(b, c, schema, rows)
			})
		}
	}
	b.Run("binary/orders/rows=2048", func(b *testing.B) {
		schema, rows := ordersBlock(b, 2048)
		benchDecode(b, Binary{}, schema, rows)
	})
	b.Run("binary/customer/rows=64", func(b *testing.B) {
		schema, rows := customerBlock(b, 64)
		benchDecode(b, Binary{}, schema, rows)
	})
}

// BenchmarkViewBlock is the decode a client that reads no cell pays: the
// same two workload blocks as BenchmarkDecodeScratch's and push-rtt's
// 256-row customer frame, checked and indexed by ViewBlock, their rows
// never built.
func BenchmarkViewBlock(b *testing.B) {
	b.Run("binary/orders/rows=2048", func(b *testing.B) {
		schema, rows := ordersBlock(b, 2048)
		benchView(b, schema, rows)
	})
	b.Run("binary/customer/rows=64", func(b *testing.B) {
		schema, rows := customerBlock(b, 64)
		benchView(b, schema, rows)
	})
	b.Run("binary/customer/rows=256", func(b *testing.B) {
		schema, rows := customerBlock(b, 256)
		benchView(b, schema, rows)
	})
}

func benchView(b *testing.B, schema minidb.Schema, rows []minidb.Row) {
	payload, err := (Binary{}).AppendBlock(nil, schema, rows)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	scratch := new(Scratch)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(payload)
		if v, err := ViewBlock(Binary{}, rd, scratch); err != nil || v.Len() != len(rows) {
			b.Fatalf("viewed %d rows, want %d, err %v", v.Len(), len(rows), err)
		}
	}
}

func benchDecode(b *testing.B, c Codec, schema minidb.Schema, rows []minidb.Row) {
	var enc bytes.Buffer
	if err := c.Encode(&enc, schema, rows); err != nil {
		b.Fatal(err)
	}
	payload := enc.Bytes()
	rd := bytes.NewReader(nil)
	scratch := new(Scratch)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(payload)
		if _, got, err := DecodeBlock(c, rd, scratch); err != nil || len(got) != len(rows) {
			b.Fatalf("decoded %d rows, want %d, err %v", len(got), len(rows), err)
		}
	}
}

// binaryRoundTripAllocLimit is the verify gate: one binary-codec block
// round-trip (encode into a reused buffer + scratch decode) must stay
// within this many allocations, steady state. The budget covers the one
// arena copy per block plus small strconv/interface spill;
// a regression here means the hot path started allocating per row or
// per cell again.
const binaryRoundTripAllocLimit = 8

// binaryDecodeByteSlack is what a steady-state binary decode may allocate
// beyond the length of the payload it decodes. The block's one arena is
// the payload, rounded up to an allocator size class (under 1 KiB more at
// the gate's block sizes); a second copy of the block's bytes overshoots.
const binaryDecodeByteSlack = 1 << 10

// TestBinaryRoundTripAllocGate is the allocation regression gate for
// the binary codec (satellite of the allocation-lean hot path work).
// It is asserted per *block*, not per row, at several block sizes: a
// per-row allocation would scale the count with the block size and trip
// the gate immediately. The decode half alone is also held in bytes, to
// one copy of the payload.
func TestBinaryRoundTripAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	for _, n := range benchBlockSizes {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			schema, rows := benchBlock(n)
			var enc bytes.Buffer
			rd := bytes.NewReader(nil)
			scratch := new(Scratch)
			// Warm up: first decode sizes the scratch, first encode sizes
			// the buffer and primes the pools. Steady state is what the
			// session hot loop sees from block 2 on.
			for i := 0; i < 3; i++ {
				enc.Reset()
				if err := (Binary{}).Encode(&enc, schema, rows); err != nil {
					t.Fatal(err)
				}
				rd.Reset(enc.Bytes())
				if _, _, err := (Binary{}).DecodeScratch(rd, scratch); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				enc.Reset()
				if err := (Binary{}).Encode(&enc, schema, rows); err != nil {
					t.Fatal(err)
				}
				rd.Reset(enc.Bytes())
				_, got, err := (Binary{}).DecodeScratch(rd, scratch)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("decoded %d rows, want %d", len(got), n)
				}
			})
			if allocs > binaryRoundTripAllocLimit {
				t.Fatalf("binary round-trip of a %d-row block costs %.1f allocs, gate is %d — the wire hot path regressed",
					n, allocs, binaryRoundTripAllocLimit)
			}
			t.Logf("binary round-trip, %d rows: %.1f allocs/block (gate %d)", n, allocs, binaryRoundTripAllocLimit)

			// Counted by hand: testing.AllocsPerRun reports no bytes.
			payload := enc.Len()
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				rd.Reset(enc.Bytes())
				if _, _, err := (Binary{}).DecodeScratch(rd, scratch); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perBlock := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if perBlock > float64(payload+binaryDecodeByteSlack) {
				t.Fatalf("binary decode of a %d-row block (%d B) allocates %.0f B, gate is the payload + %d B — the decoder copies the block more than once",
					n, payload, perBlock, binaryDecodeByteSlack)
			}
			t.Logf("binary decode, %d rows: %.0f B allocated per %d B block", n, perBlock, payload)
		})
	}
}

// binaryViewByteLimit is what a steady-state ViewBlock of a binary block
// may allocate: nothing of its own — the payload, its index and the
// cached schema live in the scratch — so only the runtime's incidental
// bytes, where one arena (a copy of the payload) would overshoot.
const binaryViewByteLimit = 1 << 10

// TestBinaryViewAllocGate holds the index pass a client pays for a block
// whose rows it never reads to 0 allocations and at most 1 KiB, steady
// state, at every gate block size.
func TestBinaryViewAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	for _, n := range benchBlockSizes {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			payload, err := (Binary{}).AppendBlock(nil, sampleSchema(), sampleRows(n, rand.New(rand.NewSource(42))))
			if err != nil {
				t.Fatal(err)
			}
			rd := bytes.NewReader(nil)
			scratch := new(Scratch)
			view := func() {
				rd.Reset(payload)
				if v, err := ViewBlock(Binary{}, rd, scratch); err != nil || v.Len() != n {
					t.Fatalf("viewed %d rows, want %d, err %v", v.Len(), n, err)
				}
			}
			for i := 0; i < 3; i++ { // size the scratch, cache the schema
				view()
			}
			if allocs := testing.AllocsPerRun(50, view); allocs > 0 {
				t.Fatalf("viewing a %d-row binary block costs %.1f allocs, gate is 0", n, allocs)
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				view()
			}
			runtime.ReadMemStats(&after)
			perBlock := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if perBlock > binaryViewByteLimit {
				t.Fatalf("viewing a %d-row binary block (%d B) allocates %.0f B, gate is %d B — the index pass copies the block", n, len(payload), perBlock, binaryViewByteLimit)
			}
			t.Logf("binary view, %d rows: %.0f B allocated per %d B block", n, perBlock, len(payload))
		})
	}
}

// xmlDecodeAllocLimit is the verify gate for the SOAP codec's decode
// half: a steady-state scratch decode of a 512-row block allocates the
// block's string arena and nothing per row or per cell (the reflective
// decoder it replaced spent ~39 000 allocations on such a block).
const xmlDecodeAllocLimit = 16

func TestXMLDecodeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	const n = 512
	schema, rows := benchBlock(n)
	var enc bytes.Buffer
	if err := (XML{}).Encode(&enc, schema, rows); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	scratch := new(Scratch)
	decode := func() {
		rd.Reset(enc.Bytes())
		_, got, err := DecodeBlock(XML{}, rd, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d rows, want %d", len(got), n)
		}
	}
	for i := 0; i < 3; i++ { // size the scratch, cache the schema
		decode()
	}
	allocs := testing.AllocsPerRun(50, decode)
	if allocs > xmlDecodeAllocLimit {
		t.Fatalf("xml decode of a %d-row block costs %.1f allocs, gate is %d — the decoder started allocating per row or per cell",
			n, allocs, xmlDecodeAllocLimit)
	}
	t.Logf("xml decode, %d rows: %.1f allocs/block (gate %d)", n, allocs, xmlDecodeAllocLimit)
}

// BenchmarkGzipEncode is the server's compute term on the +gzip paths:
// one block encoded and deflated, alone (serial: one encode at a time)
// and with every core already encoding (saturated: b.RunParallel, more
// callers than cores, as under load).
func BenchmarkGzipEncode(b *testing.B) {
	for _, c := range []Codec{Gzip(XML{}), Gzip(Binary{})} {
		for _, n := range benchBlockSizes {
			schema, rows := customerBlock(b, n)
			var sized bytes.Buffer
			if err := c.Encode(&sized, schema, rows); err != nil {
				b.Fatal(err)
			}
			perRow := float64(sized.Len()) / float64(n)
			b.Run(fmt.Sprintf("%s/rows=%d/serial", c.Name(), n), func(b *testing.B) {
				var enc bytes.Buffer
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					enc.Reset()
					if err := c.Encode(&enc, schema, rows); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(perRow, "wireB/row")
			})
			b.Run(fmt.Sprintf("%s/rows=%d/saturated", c.Name(), n), func(b *testing.B) {
				b.SetParallelism(4) // encoders per core: more callers than cores, as under load
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					var enc bytes.Buffer
					for pb.Next() {
						enc.Reset()
						if err := c.Encode(&enc, schema, rows); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.ReportMetric(perRow, "wireB/row")
			})
		}
	}
}

// gzipEncodeAllocLimit is the verify gate for the gzip encode: the
// per-encode state with its deflate writer is pooled, so a steady-state
// encode allocates nothing of its own.
const gzipEncodeAllocLimit = 4

func TestGzipEncodeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	const n = 512 // 122 KB of XML
	schema, rows := customerBlock(t, n)
	var enc bytes.Buffer
	encode := func() {
		enc.Reset()
		if err := Gzip(XML{}).Encode(&enc, schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Counted by hand: testing.AllocsPerRun would pin GOMAXPROCS to 1,
	// and the encode is measured at two procs too.
	for _, procs := range []int{1, 2} {
		setGOMAXPROCS(t, procs)
		for i := 0; i < 3; i++ { // size the buffer, prime the pools
			encode()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			encode()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		if allocs > gzipEncodeAllocLimit {
			t.Fatalf("GOMAXPROCS=%d: xml+gzip encode of a %d-row block costs %.1f allocs, gate is %d — the encoder started allocating per encode",
				procs, n, allocs, gzipEncodeAllocLimit)
		}
		t.Logf("GOMAXPROCS=%d: xml+gzip encode, %d rows: %.1f allocs/block (gate %d)", procs, n, allocs, gzipEncodeAllocLimit)
	}
}
