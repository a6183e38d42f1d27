package wire

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"wsopt/internal/minidb"
)

// Gzipped wraps any codec with gzip compression — trading CPU for
// bandwidth, the classic WAN optimization knob next to block sizing.
//
// Encode deflates the inner codec's bytes in independent 64 KiB pieces,
// on the encoding goroutine, and writes them as ONE ordinary gzip member
// (below). The deflate state and gzip.Reader behind Encode/Decode are
// pooled (a deflate writer alone is ~1.4 MB of window state), so
// steady-state compression reuses the same state machines instead of
// rebuilding them every block.
type Gzipped struct {
	// Inner is the wrapped codec (required).
	Inner Codec
	// Level is the gzip level; 0 means gzip.DefaultCompression.
	Level int
}

// Gzip wraps inner at the default compression level.
func Gzip(inner Codec) Gzipped { return Gzipped{Inner: inner} }

// Name implements Codec.
func (g Gzipped) Name() string { return g.Inner.Name() + "+gzip" }

// ContentType implements Codec. The inner content type is kept and
// nothing announces the compression: no tier sets or reads
// Content-Encoding (net/http's transport would inflate the body behind
// decode's back if one did). Both ends are started with the same codec
// name — that is the whole negotiation.
func (g Gzipped) ContentType() string { return g.Inner.ContentType() }

// gzipReader is the pooled decode state: the inflater (its zero value
// is ready for Reset), the cap on what it may produce, and the one byte
// read past the inner document.
type gzipReader struct {
	inflate gzip.Reader
	capped  io.LimitedReader
	probe   [1]byte
}

var gzipReaderPool = sync.Pool{New: func() any { return new(gzipReader) }}

// gzipPieceSize is where Encode cuts the inner byte stream: every piece
// but the last is exactly this long and is deflated as a stream of its
// own. A constant, not an option, kept for the bytes: the cache,
// same-seq replay and the gateway's standby copies compare +gzip blocks
// byte for byte, and every one of them is cut here. A cut costs ~1 KB
// (the next piece starts with an empty window and its own Huffman
// tables): a 512-row customer block (122 KB of XML) grows 3.9 %. A
// piece never sees its predecessor's bytes: priming it with them as a
// dictionary would win back 4–8 % of the output, but a flate.Writer
// made by NewWriterDict cannot be re-primed on Reset, and a fresh one
// per piece (1.4 MB to allocate and clear) measured 4.0–4.3 ms on the
// 512-row block against 3.0–3.3 ms without.
const gzipPieceSize = 64 << 10

// gzipEncoder is the io.Writer the inner codec encodes into. It deflates
// what arrives as it arrives, starting a fresh deflate stream every
// gzipPieceSize inner bytes, and writes the streams to w in order
// between one gzip header and one trailer: one standard member, laid
// out as pigz lays out its own, that any inflater reads. The bytes
// written are a function of the inner bytes and the level alone: the
// cuts are at fixed offsets, every piece starts from a Reset writer, and
// compress/flate's output does not depend on how its input is split
// into Writes.
type gzipEncoder struct {
	out   struct{ io.Writer } // Encode's w while it runs; what fw writes to
	fw    *flate.Writer       // at its pool's level
	piece int                 // inner bytes deflated into the current piece
	crc   uint32              // of the inner bytes so far
	size  uint32              // their count mod 2^32 (ISIZE)
	err   error               // first failure of fw or of w
	buf   [10]byte            // header, then trailer
}

// gzipEncoderPools holds one pool per compression level, indexed by
// level - flate.HuffmanOnly (HuffmanOnly is the lowest valid level, -2).
// An encoder is ~1.4 MB of deflate state, so steady-state compression
// reuses it instead of rebuilding it every block.
var gzipEncoderPools [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

func init() {
	for i := range gzipEncoderPools {
		level := i + flate.HuffmanOnly
		gzipEncoderPools[i].New = func() any {
			e := new(gzipEncoder)
			e.fw, _ = flate.NewWriter(&e.out, level) // fails on a level out of range only; the pools have none
			return e
		}
	}
}

// Write implements io.Writer for the inner codec.
func (e *gzipEncoder) Write(b []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, b)
	e.size += uint32(len(b))
	for rest := b; len(rest) > 0; {
		// A full piece is cut only once more bytes follow it, so the
		// piece in hand at the end is always the last one, even when the
		// inner stream is a whole number of pieces long. A cut piece ends
		// in a sync marker, byte-aligned so the next one's blocks follow.
		if e.piece == gzipPieceSize {
			if e.err = e.fw.Flush(); e.err != nil {
				return len(b) - len(rest), e.err
			}
			e.fw.Reset(&e.out)
			e.piece = 0
		}
		n := min(len(rest), gzipPieceSize-e.piece)
		if _, e.err = e.fw.Write(rest[:n]); e.err != nil {
			return len(b) - len(rest), e.err
		}
		e.piece += n
		rest = rest[n:]
	}
	return len(b), nil
}

// Encode implements Codec.
func (g Gzipped) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	level := g.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return fmt.Errorf("wire: gzip writer: invalid compression level %d", level)
	}
	pool := &gzipEncoderPools[level-flate.HuffmanOnly]
	e := pool.Get().(*gzipEncoder)
	defer func() {
		e.out.Writer = nil // a pooled encoder keeps no caller's writer alive
		pool.Put(e)
	}()
	e.out.Writer, e.piece, e.crc, e.size, e.err = w, 0, 0, 0, nil
	e.fw.Reset(&e.out)

	// The header compress/gzip writes: no name, no time, unknown OS, and
	// XFL telling the two extreme levels apart.
	e.buf = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	switch level {
	case flate.BestCompression:
		e.buf[8] = 2
	case flate.BestSpeed:
		e.buf[8] = 4
	}
	if _, err := w.Write(e.buf[:]); err != nil {
		return err
	}
	if err := g.Inner.Encode(e, schema, rows); err != nil {
		return err
	}
	if e.err != nil { // an inner codec that dropped a failed Write
		return e.err
	}
	if err := e.fw.Close(); err != nil { // the last piece ends the deflate stream
		return err
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], e.crc)
	binary.LittleEndian.PutUint32(e.buf[4:8], e.size)
	_, err := w.Write(e.buf[:8])
	return err
}

// Decode implements Codec.
func (g Gzipped) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	return g.DecodeScratch(r, nil)
}

// DecodeScratch implements ScratchDecoder by inflating into the inner
// codec's scratch path (when it has one), through view.
func (g Gzipped) DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	return eager(g.view(r, s))
}

// ErrInflatedTooLarge is returned when a gzipped block inflates past
// MaxFramePayload. The in-memory decoders buffer the whole inflated
// payload, so the cap on the compressed bytes a transport enforces does
// not bound memory by itself.
var ErrInflatedTooLarge = fmt.Errorf("wire: block inflates past %d bytes", MaxFramePayload)

// view inflates into the inner codec's ViewBlock: an index when the inner
// codec has one, an eager decode otherwise.
func (g Gzipped) view(r io.Reader, s *Scratch) (View, error) {
	zr := gzipReaderPool.Get().(*gzipReader)
	defer gzipReaderPool.Put(zr)
	if err := zr.inflate.Reset(r); err != nil {
		return View{}, fmt.Errorf("wire: gzip reader: %w", err)
	}
	// One byte past the cap is readable so that reaching it is told
	// apart from a payload of exactly the cap.
	zr.capped = io.LimitedReader{R: &zr.inflate, N: MaxFramePayload + 1}
	v, err := ViewBlock(g.Inner, &zr.capped, s)
	if zr.capped.N == 0 {
		return View{}, ErrInflatedTooLarge
	}
	if err != nil {
		return View{}, err
	}
	// The inner codec may stop at the end of its document; the gzip
	// CRC-32/ISIZE trailer is only checked on reading the stream to EOF.
	switch n, err := io.ReadFull(&zr.capped, zr.probe[:]); {
	case n > 0:
		return View{}, fmt.Errorf("wire: gzip: trailing data after the %s block", g.Inner.Name())
	case err != io.EOF:
		return View{}, fmt.Errorf("wire: gzip: %w", err)
	}
	return v, nil
}
