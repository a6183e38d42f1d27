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
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// The encode kernel's tests. compress/gzip and compress/flate are the
// oracle throughout: a stdlib reader must take every block as one
// ordinary member, a block of one piece must be the bytes a stdlib
// writer emits, and a block of several must be the bytes pigzLayout
// builds from stdlib parts.

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

// pigzLayout is the specification of Gzipped.Encode's bytes, assembled
// from stdlib parts: compress/gzip's header, the inner bytes cut at
// gzipPieceSize with each piece deflated by a fresh flate.Writer (sync
// flush between pieces, final block after the last), CRC-32 and ISIZE.
func pigzLayout(t testing.TB, inner []byte, level int) []byte {
	t.Helper()
	level = cmpLevel(level)
	var out bytes.Buffer
	zw, err := gzip.NewWriterLevel(&out, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Flush() // the header, and an empty sync block to drop
	out.Truncate(10)
	for rest := inner; ; {
		piece := rest[:min(len(rest), gzipPieceSize)]
		rest = rest[len(piece):]
		fw, _ := flate.NewWriter(&out, level)
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

// TestGzipEncodeIsOneStandardMember walks the piece boundaries: for
// inner encodings of every size around them, at every level, under every
// codec, the output is one gzip member that compress/gzip inflates to
// exactly the inner bytes (good trailer, nothing after it) and that
// Gzipped.Decode reads back — and while the inner bytes fit one piece it
// is byte for byte what the inner codec writing into a compress/gzip
// writer produces, which is what Encode was before it cut pieces.
func TestGzipEncodeIsOneStandardMember(t *testing.T) {
	sizes := []int{gzipPieceSize - 1, gzipPieceSize, gzipPieceSize + 1, 2 * gzipPieceSize, 3*gzipPieceSize + 7, 1 << 20}
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

			if len(inner) > gzipPieceSize {
				continue
			}
			var std bytes.Buffer
			zw, err := gzip.NewWriterLevel(&std, cmpLevel(level))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.inner.Encode(zw, b.schema, b.rows); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), std.Bytes()) {
				t.Fatalf("%s: one piece, yet not the bytes compress/gzip writes (%d vs %d)", label, out.Len(), std.Len())
			}
		}
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
// nothing else — not on how many helpers there were, which goroutine
// took which piece, or who else was encoding. Run with -race -count=10.
func TestGzipEncodeBytesDependOnInputAlone(t *testing.T) {
	schema, rows := customerBlock(t, 2048) // 8 pieces of XML, 3 of binary
	for _, g := range []Gzipped{Gzip(XML{}), {Inner: Binary{}, Level: gzip.BestSpeed}} {
		want := pigzLayout(t, innerBytes(t, g.Inner, schema, rows), g.Level)
		encode := func(label string) {
			var out bytes.Buffer
			if err := g.Encode(&out, schema, rows); err != nil {
				t.Errorf("%s, %s: %v", g.Name(), label, err)
			} else if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s, %s: %d bytes, not the %d of the layout", g.Name(), label, out.Len(), len(want))
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

// TestGzipEncodeErrorPathsJoinHelpers: whichever way an encode fails —
// the inner codec mid-stream, the writer at the header, inside a middle
// piece or at the trailer, a level out of range — Encode returns the
// error with every helper joined (none busy, no goroutine left behind),
// and the pooled state it put back encodes the next block correctly.
func TestGzipEncodeErrorPathsJoinHelpers(t *testing.T) {
	setGOMAXPROCS(t, 4) // helpers to leak, were they not joined
	schema, rows := customerBlock(t, 2048)
	g := Gzip(XML{})
	want := pigzLayout(t, innerBytes(t, XML{}, schema, rows), g.Level)

	ragged := append([]minidb.Row(nil), rows...)
	ragged[1500] = ragged[1500][:3] // past the second piece boundary (~270 rows a piece)

	cases := []struct {
		name  string
		codec Gzipped
		rows  []minidb.Row
		w     io.Writer
		is    error // nil: any error
	}{
		{"ragged row mid-stream", g, ragged, io.Discard, nil},
		{"writer fails on the header", g, rows, &failingWriter{budget: 4}, errWriterFull},
		{"writer fails in a middle piece", g, rows, &failingWriter{budget: len(want) / 2}, errWriterFull},
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
		if busy := gzipBusyHelpers.Load(); busy != 0 {
			t.Errorf("%s: %d helpers still counted busy", tc.name, busy)
		}
		// A joined helper has signalled and has only its return left.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines, %d before", tc.name, n, baseline)
		}
		var out bytes.Buffer
		if err := g.Encode(&out, schema, rows); err != nil {
			t.Fatalf("encode after %q: %v", tc.name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("encode after %q: not the bytes of the layout", tc.name)
		}
	}
}

// TestGzipEncodeBoundsLivePieces: memory per encode stays bounded
// however large the block — a piece is ~1.5 MB with its deflate state,
// and a 20 000-row block is 73 of them end to end. An encode takes a
// piece from the pool only when it has none of its own to reuse, so on
// an empty pool the pool's New counts the most it ever held at once.
func TestGzipEncodeBoundsLivePieces(t *testing.T) {
	schema, rows := customerBlock(t, 20000)
	g := Gzipped{Inner: XML{}, Level: gzip.BestSpeed} // the cutting is the same at every level
	if pieces := len(innerBytes(t, XML{}, schema, rows)) / gzipPieceSize; pieces < 50 {
		t.Fatalf("the block is only %d pieces", pieces)
	}
	pool := &gzipPiecePools[g.Level-gzip.HuffmanOnly]
	newPiece := pool.New
	t.Cleanup(func() { *pool = sync.Pool{New: newPiece} })
	for _, procs := range []int{1, 3} {
		setGOMAXPROCS(t, procs)
		made := 0
		*pool = sync.Pool{New: func() any { made++; return newPiece() }}
		if err := g.Encode(io.Discard, schema, rows); err != nil {
			t.Fatal(err)
		}
		if made < 1 || made > procs {
			t.Errorf("GOMAXPROCS=%d: %d pieces live at once, want 1..%d", procs, made, procs)
		}
	}
}
