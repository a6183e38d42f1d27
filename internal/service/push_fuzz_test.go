package service

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"wsopt/internal/blockcache"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// fuzzPushCatalog derives a deterministic relation from the fuzz
// arguments, biased toward the shapes that break codecs: zero-length
// strings, NULL-heavy rows, mixed unicode.
func fuzzPushCatalog(t *testing.T, seed int64, n int) *minidb.Catalog {
	t.Helper()
	schema := minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "name", Type: minidb.String},
		{Name: "bal", Type: minidb.Float64},
		{Name: "d", Type: minidb.Date},
	}
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	alphabet := []rune("abc <>&\"'λ日本語\x00\n\t")
	rows := make([]minidb.Row, n)
	for i := range rows {
		var s []rune
		for j := rng.Intn(24); j > 0; j-- {
			s = append(s, alphabet[rng.Intn(len(alphabet))])
		}
		row := minidb.Row{
			minidb.NewInt(rng.Int63n(1e9) - 5e8),
			minidb.NewString(string(s)),
			minidb.NewFloat(rng.NormFloat64() * 1000),
			minidb.NewDate(rng.Int63n(20000)),
		}
		if rng.Intn(5) == 0 {
			k := rng.Intn(len(row))
			row[k] = minidb.Null(schema[k].Type)
		}
		rows[i] = row
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return cat
}

// collectFrames drains one push stream, acking every frame, and returns
// the raw frame payloads in order.
func collectFrames(t *testing.T, pc *pushConn) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		f, err := pc.read()
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if f.Type == wire.FrameError {
			t.Fatalf("error frame: %s", f.Payload)
		}
		out = append(out, append([]byte(nil), f.Payload...))
		pc.ack(t, f.Seq)
		if f.Done {
			if _, err := pc.read(); err != io.EOF {
				t.Fatalf("after done frame: %v, want EOF", err)
			}
			return out
		}
	}
}

// FuzzPushFrameCacheByteIdentical is the push path's cache oracle, the
// streaming mirror of blockcache's FuzzCacheHitByteIdentical: for every
// codec (xml/json/binary, plain and gzipped at a fuzzed level) and
// every fuzzed relation shape, the frames of a warm (cache-hit) push
// stream must be byte-identical to the cold-encoded frames that filled
// the cache — and the warm pass must actually hit.
func FuzzPushFrameCacheByteIdentical(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(7), int8(0))
	f.Add(int64(2), uint8(1), uint8(1), int8(9))     // single row, best compression
	f.Add(int64(3), uint8(200), uint8(61), int8(-2)) // large relation, HuffmanOnly region
	f.Add(int64(-7), uint8(50), uint8(0), int8(1))   // size fuzzed to the 1 floor
	f.Add(int64(99), uint8(33), uint8(255), int8(127))

	f.Fuzz(func(t *testing.T, seed int64, n, size uint8, level int8) {
		blockSize := int(size)%64 + 1
		gzLevel := gzip.HuffmanOnly + int(uint8(level))%(gzip.BestCompression-gzip.HuffmanOnly+1)
		codecs := []wire.Codec{
			wire.XML{}, wire.Binary{},
			wire.Gzipped{Inner: wire.XML{}, Level: gzLevel},
			wire.Gzipped{Inner: wire.Binary{}, Level: gzLevel},
		}
		for ci, codec := range codecs {
			cache, err := blockcache.New(blockcache.Config{MemBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{
				Catalog: fuzzPushCatalog(t, seed, int(n)),
				Codec:   codec,
				Cache:   cache,
			})

			id1, _ := openSession(t, ts, `{"table":"items"}`)
			pc1, resp := openStream(t, ts, id1, blockSize, 4, 0)
			if pc1 == nil {
				t.Fatalf("codec %d (%s): cold stream open: %s", ci, codec.Name(), resp.Status)
			}
			cold := collectFrames(t, pc1)
			pc1.close()
			missesAfterCold := cache.Stats().Misses

			id2, _ := openSession(t, ts, `{"table":"items"}`)
			pc2, resp := openStream(t, ts, id2, blockSize, 4, 0)
			if pc2 == nil {
				t.Fatalf("codec %d (%s): warm stream open: %s", ci, codec.Name(), resp.Status)
			}
			warm := collectFrames(t, pc2)
			pc2.close()

			if len(warm) != len(cold) {
				t.Fatalf("codec %d (%s): warm pass framed %d blocks, cold %d", ci, codec.Name(), len(warm), len(cold))
			}
			for i := range warm {
				if !bytes.Equal(warm[i], cold[i]) {
					t.Fatalf("codec %d (%s): warm frame %d differs from cold encode", ci, codec.Name(), i+1)
				}
			}
			st := cache.Stats()
			if st.Misses != missesAfterCold {
				t.Fatalf("codec %d (%s): warm push pass missed the cache: %d -> %d misses (%s)",
					ci, codec.Name(), missesAfterCold, st.Misses, fmt.Sprint(st))
			}
			if st.MemHits == 0 {
				t.Fatalf("codec %d (%s): warm push pass recorded no cache hits", ci, codec.Name())
			}
			ts.Close()
		}
	})
}
