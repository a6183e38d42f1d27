package blockcache

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// fuzzRows derives a deterministic block from the fuzz arguments,
// biased toward the shapes that break codecs and arenas: zero-length
// strings, NULL-heavy rows, and mixed unicode.
func fuzzRows(seed int64, n int) (minidb.Schema, []minidb.Row) {
	schema := minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "name", Type: minidb.String},
		{Name: "note", Type: minidb.String},
		{Name: "bal", Type: minidb.Float64},
		{Name: "d", Type: minidb.Date},
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]minidb.Row, n)
	for i := range rows {
		row := minidb.Row{
			minidb.NewInt(rng.Int63n(1e9) - 5e8),
			minidb.NewString(fuzzString(rng)),
			minidb.NewString(""),
			minidb.NewFloat(rng.NormFloat64() * 1000),
			minidb.NewDate(rng.Int63n(20000)),
		}
		// NULL-heavy: on average over a third of rows carry NULLs, and
		// some rows are all-NULL.
		switch rng.Intn(6) {
		case 0:
			row[rng.Intn(len(row))] = minidb.Null(schema[rng.Intn(len(row))].Type)
		case 1:
			for j := range row {
				row[j] = minidb.Null(schema[j].Type)
			}
		}
		rows[i] = row
	}
	return schema, rows
}

func fuzzString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return "" // zero-length strings are a corpus requirement
	}
	alphabet := []rune("abc <>&\"'λ日本語\x00\n\t")
	n := rng.Intn(24)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// fuzzCodecs is the full cross-product the service can run with: the
// two base codecs and their gzip wrappers at a level mapped from the
// fuzz input across the valid range.
func fuzzCodecs(level int8) []wire.Codec {
	gzLevel := gzip.HuffmanOnly + int(uint8(level))%(gzip.BestCompression-gzip.HuffmanOnly+1)
	return []wire.Codec{
		wire.XML{}, wire.Binary{},
		wire.Gzipped{Inner: wire.XML{}, Level: gzLevel},
		wire.Gzipped{Inner: wire.Binary{}, Level: gzLevel},
	}
}

var fuzzBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// FuzzCacheHitByteIdentical is the cache's correctness oracle: for every
// codec (xml/binary, plain and gzipped at a fuzzed level) and every
// fuzzed block shape, a block that travels pooled-buffer → NewEntry →
// memory tier → back, filled directly or through GetOrFill, must be byte-identical to a cold
// encode — even after the pooled source buffer is poisoned and recycled.
func FuzzCacheHitByteIdentical(f *testing.F) {
	f.Add(int64(1), uint8(20), int8(0))
	f.Add(int64(2), uint8(0), int8(1))    // empty block
	f.Add(int64(3), uint8(1), int8(9))    // single row, best compression
	f.Add(int64(42), uint8(200), int8(7)) // large block
	f.Add(int64(-7), uint8(50), int8(-2)) // HuffmanOnly region
	f.Add(int64(99), uint8(33), int8(127))

	f.Fuzz(func(t *testing.T, seed int64, n uint8, level int8) {
		schema, rows := fuzzRows(seed, int(n))
		for ci, codec := range fuzzCodecs(level) {
			// Cold encode: the ground truth, into a private buffer.
			var cold bytes.Buffer
			if err := codec.Encode(&cold, schema, rows); err != nil {
				t.Fatalf("codec %d (%s): cold encode: %v", ci, codec.Name(), err)
			}
			want := cold.Bytes()

			// Hot path: encode into a pooled buffer, copy into an entry,
			// then poison and recycle the buffer the way the service's
			// pool would.
			buf := fuzzBufPool.Get().(*bytes.Buffer)
			buf.Reset()
			if err := codec.Encode(buf, schema, rows); err != nil {
				t.Fatalf("codec %d (%s): pooled encode: %v", ci, codec.Name(), err)
			}
			ent := NewEntry(buf.Bytes(), len(rows), true)
			poison := buf.Bytes()
			for i := range poison {
				poison[i] = 0xAA
			}
			buf.Reset()
			fuzzBufPool.Put(buf)
			if !bytes.Equal(ent.Bytes(), want) {
				t.Fatalf("codec %d (%s): entry bytes differ from cold encode after pool recycling", ci, codec.Name())
			}

			// Memory-tier round trip.
			c, err := New(Config{MemBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			key := DeriveKey(Fingerprint(codec.Name(), fmt.Sprint(seed)), int64(n), 1)
			c.put(key, ent)
			hit := c.Get(key)
			if hit == nil {
				t.Fatalf("codec %d (%s): entry not resident", ci, codec.Name())
			}
			if !bytes.Equal(hit.Bytes(), want) || hit.Tuples() != len(rows) {
				t.Fatalf("codec %d (%s): memory hit differs from cold encode", ci, codec.Name())
			}
			hit.Release()
			ent.Release()

			// Fill round trip, the service's path: GetOrFill, then a hit.
			fkey := DeriveKey(Fingerprint(codec.Name(), fmt.Sprint(seed)), int64(n), 2)
			fent, _, err := c.GetOrFill(fkey, func() (*Entry, error) {
				return NewEntry(want, len(rows), true), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			fent.Release()
			fhit := c.Get(fkey)
			if fhit == nil || !bytes.Equal(fhit.Bytes(), want) || fhit.Tuples() != len(rows) || !fhit.Done() {
				t.Fatalf("codec %d (%s): filled hit differs from cold encode", ci, codec.Name())
			}
			fhit.Release()
		}
	})
}
