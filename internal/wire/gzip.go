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
// The gzip.Writer and gzip.Reader behind Encode/Decode are pooled (a
// deflate writer alone is ~1.4 MB of window state), so steady-state
// compression reuses the same state machines instead of rebuilding them
// every block.
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

// ContentType implements Codec. The inner content type is kept; transport
// compression is signalled out of band (the service sets the header).
func (g Gzipped) ContentType() string { return g.Inner.ContentType() }

// gzipWriterPools holds one pool per compression level, indexed by
// level - gzip.HuffmanOnly (HuffmanOnly is the lowest valid level, -2).
var gzipWriterPools [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

func getGzipWriter(w io.Writer, level int) (*gzip.Writer, *sync.Pool, error) {
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		_, err := gzip.NewWriterLevel(w, level) // borrow the stdlib error
		return nil, nil, err
	}
	pool := &gzipWriterPools[level-gzip.HuffmanOnly]
	if zw, ok := pool.Get().(*gzip.Writer); ok {
		zw.Reset(w)
		return zw, pool, nil
	}
	zw, err := gzip.NewWriterLevel(w, level)
	return zw, pool, err
}

// gzipReader is the pooled decode state: the inflater (its zero value
// is ready for Reset), the cap on what it may produce, and the one byte
// read past the inner document.
type gzipReader struct {
	inflate gzip.Reader
	capped  io.LimitedReader
	probe   [1]byte
}

var gzipReaderPool = sync.Pool{New: func() any { return new(gzipReader) }}

// Encode implements Codec.
func (g Gzipped) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	level := g.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	zw, pool, err := getGzipWriter(w, level)
	if err != nil {
		return fmt.Errorf("wire: gzip writer: %w", err)
	}
	defer pool.Put(zw)
	if err := g.Inner.Encode(zw, schema, rows); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// Decode implements Codec.
func (g Gzipped) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	return g.decode(r, nil)
}

// DecodeScratch implements ScratchDecoder by inflating into the inner
// codec's scratch path (when it has one).
func (g Gzipped) DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	return g.decode(r, s)
}

// ErrInflatedTooLarge is returned when a gzipped block inflates past
// MaxFramePayload. The in-memory decoders buffer the whole inflated
// payload, so the cap on the compressed bytes a transport enforces does
// not bound memory by itself.
var ErrInflatedTooLarge = fmt.Errorf("wire: block inflates past %d bytes", MaxFramePayload)

func (g Gzipped) decode(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	zr := gzipReaderPool.Get().(*gzipReader)
	defer gzipReaderPool.Put(zr)
	if err := zr.inflate.Reset(r); err != nil {
		return nil, nil, fmt.Errorf("wire: gzip reader: %w", err)
	}
	// One byte past the cap is readable so that reaching it is told
	// apart from a payload of exactly the cap.
	zr.capped = io.LimitedReader{R: &zr.inflate, N: MaxFramePayload + 1}
	schema, rows, err := DecodeBlock(g.Inner, &zr.capped, s)
	if zr.capped.N == 0 {
		return nil, nil, ErrInflatedTooLarge
	}
	if err != nil {
		return nil, nil, err
	}
	// The inner codec may stop at the end of its document; the gzip
	// CRC-32/ISIZE trailer is only checked on reading the stream to EOF.
	switch n, err := io.ReadFull(&zr.capped, zr.probe[:]); {
	case n > 0:
		return nil, nil, fmt.Errorf("wire: gzip: trailing data after the %s block", g.Inner.Name())
	case err != io.EOF:
		return nil, nil, fmt.Errorf("wire: gzip: %w", err)
	}
	return schema, rows, nil
}
