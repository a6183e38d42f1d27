package wire

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wsopt/internal/minidb"
)

func gzipCodecs() []Codec { return []Codec{Gzip(XML{}), Gzip(Binary{})} }

// TestGzipDecodeVerifiesTrailer: a +gzip block is only good if the whole
// gzip stream is — the CRC-32 and ISIZE that follow the deflate data,
// and nothing after the inner document. Text decoders that stop at the
// end of their document used to leave all of that unread.
func TestGzipDecodeVerifiesTrailer(t *testing.T) {
	schema, rows := sampleSchema(), sampleRows(50, rand.New(rand.NewSource(4)))
	for _, c := range gzipCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.Encode(&buf, schema, rows); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			decode := func(b []byte) error {
				if _, _, err := c.Decode(bytes.NewReader(b)); err != nil {
					return err
				}
				_, _, err := DecodeBlock(c, bytes.NewReader(b), new(Scratch))
				return err
			}
			if err := decode(good); err != nil {
				t.Fatalf("intact block: %v", err)
			}
			flip := func(fromEnd int) []byte {
				b := append([]byte(nil), good...)
				b[len(b)-fromEnd] ^= 0x01
				return b
			}
			if err := decode(flip(8)); !errors.Is(err, gzip.ErrChecksum) {
				t.Errorf("flipped CRC-32 byte: err = %v, want gzip.ErrChecksum", err)
			}
			if err := decode(flip(1)); !errors.Is(err, gzip.ErrChecksum) {
				t.Errorf("flipped ISIZE byte: err = %v, want gzip.ErrChecksum", err)
			}
			if err := decode(append(append([]byte(nil), good...), "garbage"...)); err == nil {
				t.Error("garbage after the gzip stream accepted")
			}

			// Garbage inside the stream, after the inner document.
			var inner, packed bytes.Buffer
			if err := c.(Gzipped).Inner.Encode(&inner, schema, rows); err != nil {
				t.Fatal(err)
			}
			inner.WriteString("garbage")
			zw := gzip.NewWriter(&packed)
			zw.Write(inner.Bytes())
			zw.Close()
			if err := decode(packed.Bytes()); err == nil {
				t.Error("garbage after the inner document accepted")
			}
		})
	}
}

// gzipOf compresses n copies of b without holding them in memory.
func gzipOf(t *testing.T, b byte, n int) []byte {
	t.Helper()
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	chunk := bytes.Repeat([]byte{b}, 64<<10)
	for n > 0 {
		m := min(n, len(chunk))
		if _, err := zw.Write(chunk[:m]); err != nil {
			t.Fatal(err)
		}
		n -= m
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return packed.Bytes()
}

// TestGzipDecodeCapsInflatedSize: the transports cap the compressed
// bytes of a block, which bounds nothing — a few dozen KiB of deflate
// inflate to more than MaxFramePayload. The in-memory decoders must be
// cut off at the cap with the typed error; a decoder that refuses the
// payload at its first byte never gets that far.
func TestGzipDecodeCapsInflatedSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("inflates 64 MiB per codec")
	}
	bomb := gzipOf(t, ' ', MaxFramePayload+1) // leading whitespace: every decoder keeps reading
	if len(bomb) > 128<<10 {
		t.Fatalf("bomb is %d bytes compressed", len(bomb))
	}
	for _, c := range gzipCodecs() {
		s := new(Scratch)
		if _, _, err := DecodeBlock(c, bytes.NewReader(bomb), s); !errors.Is(err, ErrInflatedTooLarge) {
			t.Errorf("%s: %d bytes inflating past the cap: err = %v, want ErrInflatedTooLarge", c.Name(), len(bomb), err)
		}
		if cap(s.raw) > 2*MaxFramePayload {
			t.Errorf("%s: scratch holds %d bytes after a refused block", c.Name(), cap(s.raw))
		}
	}

	// Exactly the cap is not past it: the error is the inner decoder's.
	atCap := gzipOf(t, ' ', MaxFramePayload)
	if _, _, err := Gzip(XML{}).Decode(bytes.NewReader(atCap)); err == nil || errors.Is(err, ErrInflatedTooLarge) {
		t.Errorf("payload of exactly the cap: err = %v, want a syntax error", err)
	}
}

// The encode kernel's tests. compress/gzip is the oracle throughout:
// every block must be the bytes a stdlib writer emits at the same level,
// and a stdlib reader must take it as one ordinary member.

// rawCodec is an inner codec whose encoding is exactly data, for the
// inner sizes no real codec can produce (0 and 1 byte).
type rawCodec struct{ data []byte }

func (rawCodec) Name() string        { return "raw" }
func (rawCodec) ContentType() string { return "application/octet-stream" }
func (c rawCodec) Encode(w io.Writer, _ minidb.Schema, _ []minidb.Row) error {
	_, err := w.Write(c.data)
	return err
}
func (c rawCodec) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	got, err := io.ReadAll(io.LimitReader(r, int64(len(c.data))))
	if err == nil && !bytes.Equal(got, c.data) {
		err = errors.New("raw: other bytes than were encoded")
	}
	return nil, nil, err
}

func innerBytes(t testing.TB, c Codec, schema minidb.Schema, rows []minidb.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, schema, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockOfInnerSize builds a block that c encodes to exactly n bytes:
// sample rows up to a little under n, then two rows whose string cells
// are padded to land on it (two, because a binary length prefix growing
// by a byte makes one pad skip a size).
func blockOfInnerSize(t *testing.T, c Codec, n int) (minidb.Schema, []minidb.Row) {
	t.Helper()
	schema := sampleSchema()
	pool := sampleRows(n/20+8, rand.New(rand.NewSource(int64(n))))
	padRow := func(pad int) minidb.Row {
		return minidb.Row{minidb.NewInt(1), minidb.NewString(strings.Repeat("x", pad)), minidb.NewFloat(1), minidb.NewDate(1)}
	}
	size := func(rows []minidb.Row) int { return len(innerBytes(t, c, schema, rows)) }
	perRow := float64(size(pool[:256])) / 256
	k := min(int(float64(n)/perRow), len(pool))
	for k > 0 && size(append(pool[:k:k], padRow(0), padRow(0))) > n {
		k -= k/20 + 1
	}
	for a := 0; a < 4; a++ {
		rows := append(pool[:k:k], padRow(a), padRow(0))
		for b, tries := n-size(rows), 0; b >= 0 && tries < 4; tries++ {
			rows[k+1] = padRow(b)
			got := size(rows)
			if got == n {
				return schema, rows
			}
			b -= got - n
		}
	}
	t.Fatalf("%s: no block of exactly %d inner bytes found", c.Name(), n)
	return nil, nil
}

// stdGzip is the specification of Gzipped.Encode's bytes: inner
// written by a fresh compress/gzip writer at the level a Gzipped.Level
// stands for.
func stdGzip(t testing.TB, inner []byte, level int) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := gzip.NewWriterLevel(&out, cmpLevel(level))
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(inner)
	zw.Close()
	return out.Bytes()
}

// TestGzipEncodeIsOneStandardMember: for inner encodings of every size
// built here, at every level, under every codec, the output is byte for
// byte what compress/gzip writes for the inner bytes, one gzip member
// that compress/gzip inflates to exactly the inner bytes (good trailer,
// nothing after it) and that Gzipped.Decode reads back. The sizes lie on
// both sides of 64 KiB, the most one stored deflate block holds, and of
// several of them.
func TestGzipEncodeIsOneStandardMember(t *testing.T) {
	sizes := []int{1<<16 - 1, 1 << 16, 1<<16 + 1, 2 << 16, 3<<16 + 7, 1 << 20}
	levels := []int{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9} // all Gzipped accepts; 0 stands for the default
	if testing.Short() || raceEnabled {
		// Instrumented deflate is ~10x slower: keep one level of each
		// algorithm compress/flate has (Huffman only, fast, lazy, and
		// lazy at its most patient) and leave 36 MiB of 1 MiB blocks out.
		sizes, levels = sizes[:len(sizes)-1], []int{gzip.HuffmanOnly, 0, gzip.BestSpeed, gzip.BestCompression}
	}
	type block struct {
		inner  Codec
		schema minidb.Schema
		rows   []minidb.Row
	}
	blocks := []block{{inner: rawCodec{}}, {inner: rawCodec{data: []byte{'x'}}}}
	for _, c := range []Codec{XML{}, Binary{}} {
		blocks = append(blocks, block{c, sampleSchema(), nil}) // the smallest real block
		for _, n := range sizes {
			schema, rows := blockOfInnerSize(t, c, n)
			blocks = append(blocks, block{c, schema, rows})
		}
	}
	for _, b := range blocks {
		inner := innerBytes(t, b.inner, b.schema, b.rows)
		for _, level := range levels {
			g := Gzipped{Inner: b.inner, Level: level}
			label := fmt.Sprintf("%s, %d inner bytes, level %d", g.Name(), len(inner), level)
			var out bytes.Buffer
			if err := g.Encode(&out, b.schema, b.rows); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want := stdGzip(t, inner, level); !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s: not the bytes compress/gzip writes (%d vs %d)", label, out.Len(), len(want))
			}

			rd := bytes.NewReader(out.Bytes())
			zr, err := gzip.NewReader(rd)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			zr.Multistream(false)
			got, err := io.ReadAll(zr) // nil only past a verified CRC-32/ISIZE
			if err != nil {
				t.Fatalf("%s: stdlib inflate: %v", label, err)
			}
			if !bytes.Equal(got, inner) {
				t.Fatalf("%s: stdlib inflates to %d other bytes", label, len(got))
			}
			if rd.Len() != 0 {
				t.Fatalf("%s: %d bytes after the member", label, rd.Len())
			}

			_, rows, err := g.Decode(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("%s: Decode: %v", label, err)
			}
			rowsEqual(t, b.schema, b.rows, rows)
		}
	}
}

// multiStreamMember is one gzip member whose deflate data is several
// streams: the inner bytes cut every cut bytes, each piece deflated by a
// fresh flate.Writer (a sync flush between pieces, the final block after
// the last), between compress/gzip's header and the CRC-32/ISIZE trailer.
// An encoder before this one wrote every block past 64 KiB this way.
func multiStreamMember(t testing.TB, inner []byte, cut int) []byte {
	t.Helper()
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Flush() // the header, and an empty sync block to drop
	out.Truncate(10)
	for rest := inner; ; {
		piece := rest[:min(len(rest), cut)]
		rest = rest[len(piece):]
		fw, _ := flate.NewWriter(&out, flate.DefaultCompression)
		fw.Write(piece)
		if len(rest) == 0 {
			fw.Close()
			break
		}
		fw.Flush()
	}
	out.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(inner)))
	out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(inner))))
	return out.Bytes()
}

// TestGzipDecodeReadsMultiStreamMember: while a fleet is upgraded, a
// client can read a block that a server of the older version cut into
// 64 KiB deflate streams. Decode and DecodeBlock read such a member to
// the rows that one stream of the same inner bytes decodes to.
func TestGzipDecodeReadsMultiStreamMember(t *testing.T) {
	schema, rows := customerBlock(t, 2048)
	for _, c := range gzipCodecs() {
		g := c.(Gzipped)
		inner := innerBytes(t, g.Inner, schema, rows)
		member := multiStreamMember(t, inner, 64<<10)
		if len(inner) <= 2*64<<10 || bytes.Equal(member, stdGzip(t, inner, g.Level)) {
			t.Fatalf("%s: %d inner bytes make no member of three streams", g.Name(), len(inner))
		}
		_, got, err := g.Decode(bytes.NewReader(member))
		if err != nil {
			t.Fatalf("%s: Decode: %v", g.Name(), err)
		}
		rowsEqual(t, schema, rows, got)
		_, got, err = DecodeBlock(g, bytes.NewReader(member), &Scratch{})
		if err != nil {
			t.Fatalf("%s: DecodeBlock: %v", g.Name(), err)
		}
		rowsEqual(t, schema, rows, got)
	}
}

// cmpLevel is the compress/gzip level a Gzipped.Level stands for.
func cmpLevel(level int) int {
	if level == 0 {
		return gzip.DefaultCompression
	}
	return level
}

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestGzipEncodeBytesDependOnInputAlone: the cache, same-seq replay and
// the gateway's standby copies compare encodings byte for byte, so the
// bytes of a block may depend on its inner bytes and the level and on
// nothing else — not on GOMAXPROCS, on which goroutine encodes, or on
// who else was encoding. Run with -race -count=10.
func TestGzipEncodeBytesDependOnInputAlone(t *testing.T) {
	schema, rows := customerBlock(t, 2048) // 491 KB of XML, 378 KB of binary
	for _, g := range []Gzipped{Gzip(XML{}), {Inner: Binary{}, Level: gzip.BestSpeed}} {
		want := stdGzip(t, innerBytes(t, g.Inner, schema, rows), g.Level)
		encode := func(label string) {
			var out bytes.Buffer
			if err := g.Encode(&out, schema, rows); err != nil {
				t.Errorf("%s, %s: %v", g.Name(), label, err)
			} else if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s, %s: %d bytes, not the %d of compress/gzip", g.Name(), label, out.Len(), len(want))
			}
		}
		for _, procs := range []int{1, 2, 8} {
			setGOMAXPROCS(t, procs)
			encode(fmt.Sprintf("GOMAXPROCS=%d", procs))
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				encode(fmt.Sprintf("concurrent caller %d", i))
			}()
		}
		wg.Wait()
	}
}

// failingWriter accepts budget bytes, then fails.
type failingWriter struct{ budget int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(b) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errWriterFull
	}
	w.budget -= len(b)
	return len(b), nil
}

// TestGzipEncodeErrorPaths: whichever way an encode fails — the inner
// codec mid-stream, the writer at the header, mid-stream or at the
// trailer, a level out of range — Encode returns the error, leaves no
// goroutine behind, and the pooled state it put back encodes the next
// block correctly.
func TestGzipEncodeErrorPaths(t *testing.T) {
	setGOMAXPROCS(t, 4) // cores for any goroutine an encode started to run on
	schema, rows := customerBlock(t, 2048)
	g := Gzip(XML{})
	want := stdGzip(t, innerBytes(t, XML{}, schema, rows), g.Level)

	ragged := append([]minidb.Row(nil), rows...)
	ragged[1500] = ragged[1500][:3] // ~360 KB into the inner bytes

	cases := []struct {
		name  string
		codec Gzipped
		rows  []minidb.Row
		w     io.Writer
		is    error // nil: any error
	}{
		{"ragged row mid-stream", g, ragged, io.Discard, nil},
		{"writer fails on the header", g, rows, &failingWriter{budget: 4}, errWriterFull},
		{"writer fails mid-stream", g, rows, &failingWriter{budget: len(want) / 2}, errWriterFull},
		{"writer fails on the trailer", g, rows, &failingWriter{budget: len(want) - 3}, errWriterFull},
		{"level above the range", Gzipped{Inner: XML{}, Level: 10}, rows, io.Discard, nil},
		{"level below the range", Gzipped{Inner: XML{}, Level: -3}, rows, io.Discard, nil},
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		err := tc.codec.Encode(tc.w, schema, tc.rows)
		if err == nil || tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines, %d before", tc.name, n, baseline)
		}
		var out bytes.Buffer
		if err := g.Encode(&out, schema, rows); err != nil {
			t.Fatalf("encode after %q: %v", tc.name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("encode after %q: not the bytes of compress/gzip", tc.name)
		}
	}
}

// TestGzipEncodeOneStatePerEncode: memory per encode stays bounded
// however large the block — a writer is ~1.4 MB of deflate state, and a
// 20 000-row block is ~4.8 MB of XML. An encode takes one writer from its
// level's pool and deflates the whole block with it, so on an empty pool
// the pool's New runs once per encode, whatever GOMAXPROCS is.
func TestGzipEncodeOneStatePerEncode(t *testing.T) {
	schema, rows := customerBlock(t, 20000)
	g := Gzipped{Inner: XML{}, Level: gzip.BestSpeed}
	if n := len(innerBytes(t, XML{}, schema, rows)); n < 4<<20 {
		t.Fatalf("the block is only %d bytes", n)
	}
	pool := &gzipWriterPools[g.Level-gzip.HuffmanOnly]
	newWriter := pool.New
	t.Cleanup(func() { *pool = sync.Pool{New: newWriter} })
	for _, procs := range []int{1, 3} {
		setGOMAXPROCS(t, procs)
		made := 0
		*pool = sync.Pool{New: func() any { made++; return newWriter() }}
		if err := g.Encode(io.Discard, schema, rows); err != nil {
			t.Fatal(err)
		}
		if made != 1 {
			t.Errorf("GOMAXPROCS=%d: %d writer states made for one encode, want 1", procs, made)
		}
	}
}

// TestGzipEncoderKeepsNoCallerWriter: a pooled encoder keeps no caller's
// writer alive — not after an encode, and not after one whose writer
// failed. Its gzip.Writer and deflate state only ever hold the encoder
// itself, which forgets the caller's writer as the encode returns.
func TestGzipEncoderKeepsNoCallerWriter(t *testing.T) {
	schema, rows := customerBlock(t, 64)
	e := gzipWriterPools[gzip.BestSpeed-gzip.HuffmanOnly].New().(*gzipEncoder)
	for _, w := range []io.Writer{new(bytes.Buffer), &failingWriter{budget: 100}} {
		err := e.encode(w, XML{}, schema, rows)
		if _, failing := w.(*failingWriter); failing != (err != nil) {
			t.Fatalf("encode into %T: %v", w, err)
		}
		if reaches(reflect.ValueOf(e), reflect.ValueOf(w).Pointer(), map[uintptr]bool{}) {
			t.Fatalf("after an encode into %T the pooled encoder still reaches it", w)
		}
	}
	// The oracle of the walk: during an encode the encoder does reach it.
	var w bytes.Buffer
	e.w = &w
	if !reaches(reflect.ValueOf(e), reflect.ValueOf(&w).Pointer(), map[uintptr]bool{}) {
		t.Fatal("the walk does not find a writer the sink holds")
	}
}

// reaches reports whether the object at target is reachable from v
// through pointers, interfaces, struct fields, arrays and slices.
func reaches(v reflect.Value, target uintptr, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		p := v.Pointer()
		if p == target {
			return true
		}
		if seen[p] {
			return false
		}
		seen[p] = true
		return reaches(v.Elem(), target, seen)
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), target, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if reaches(v.Field(i), target, seen) {
				return true
			}
		}
	case reflect.Array, reflect.Slice:
		if !holdsPointers(v.Type().Elem()) {
			return false
		}
		for i := range v.Len() {
			if reaches(v.Index(i), target, seen) {
				return true
			}
		}
	}
	return false
}

// holdsPointers reports whether a value of type t can lead reaches on.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice:
		return true
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
