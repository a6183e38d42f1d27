package wire

import (
	"compress/gzip"
	"fmt"
	"io"
	"sync"

	"wsopt/internal/minidb"
)

// Gzipped wraps any codec with gzip compression — trading CPU for
// bandwidth, the classic WAN optimization knob next to block sizing.
//
// Encode writes the inner codec's bytes through compress/gzip as one
// ordinary gzip member. The gzip.Writer and gzip.Reader behind
// Encode/Decode are pooled (a deflate writer alone is ~1.4 MB of window
// state), so steady-state compression reuses the same state machines
// instead of rebuilding them every block.
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

// gzipWriterPools holds one pool of gzipEncoders per compression level,
// indexed by level - gzip.HuffmanOnly (the lowest valid level, -2).
var gzipWriterPools [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

func init() {
	for i := range gzipWriterPools {
		level := i + gzip.HuffmanOnly
		gzipWriterPools[i].New = func() any {
			e := new(gzipEncoder)
			e.zw, _ = gzip.NewWriterLevel(e, level) // fails on a level out of range only; the pools have none
			return e
		}
	}
}

// gzipEncoder is the pooled encode state: a gzip.Writer that only ever
// writes to the encoder itself, which forwards to the caller's writer w
// during an encode and holds none between encodes. So one Reset per
// encode — one clear of the deflate tables — restarts the stream, and a
// pooled encoder keeps no caller's writer alive.
type gzipEncoder struct {
	zw *gzip.Writer
	w  io.Writer
}

func (e *gzipEncoder) Write(p []byte) (int, error) { return e.w.Write(p) }

// encode deflates inner's encoding of the rows into w as one gzip member.
func (e *gzipEncoder) encode(w io.Writer, inner Codec, schema minidb.Schema, rows []minidb.Row) error {
	e.w = w
	defer func() { e.w = nil }()
	e.zw.Reset(e)
	if err := inner.Encode(e.zw, schema, rows); err != nil {
		return err
	}
	return e.zw.Close()
}

// Encode implements Codec. The block is one gzip member, one deflate
// stream, byte for byte what compress/gzip writes at the level: its
// bytes are a function of the inner bytes and the level alone.
func (g Gzipped) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	level := g.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		return fmt.Errorf("wire: gzip writer: invalid compression level %d", level)
	}
	pool := &gzipWriterPools[level-gzip.HuffmanOnly]
	e := pool.Get().(*gzipEncoder)
	defer pool.Put(e)
	return e.encode(w, g.Inner, schema, rows)
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
