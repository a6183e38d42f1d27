package wire

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"wsopt/internal/minidb"
)

// Gzipped wraps any codec with gzip compression — trading CPU for
// bandwidth, the classic WAN optimization knob next to block sizing.
//
// Encode deflates the inner codec's bytes in independent 64 KiB pieces,
// on as many idle cores as there are pieces, and writes them as ONE
// ordinary gzip member (below). The deflate state and gzip.Reader behind
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

// gzipPieceSize is where Encode cuts the inner byte stream: every piece
// but the last is exactly this long. A constant, not an option — it was
// sized on this repository's blocks. A cut costs ~1 KB (the next piece
// starts with an empty window and its own Huffman tables): a 512-row
// customer block (122 KB of XML) grows 3.9 % at 64 KiB, 10.8 % at 32 KiB
// and 19.7 % at 16 KiB, and larger pieces leave a block of the size the
// controller settles on with nothing to hand to a second core.
const gzipPieceSize = 64 << 10

// gzipPiece is one cut of the inner stream and its deflate stream. A
// piece never sees its predecessor's bytes: priming it with them as a
// dictionary would win back 4–8 % of the output, but a flate.Writer made
// by NewWriterDict cannot be re-primed on Reset, and a fresh one per
// piece (1.4 MB to allocate and clear) measured 4.0–4.3 ms on the
// 512-row block against 3.0–3.3 ms without.
type gzipPiece struct {
	in   []byte // ≤ gzipPieceSize inner bytes
	out  bytes.Buffer
	fw   *flate.Writer // at its pool's level
	last bool          // ends the deflate stream
	err  error
	done chan struct{} // a helper's completion; buffered, so it never waits to report
	help func()        // p.helper, bound once: `go p.helper()` would allocate a closure per piece
}

// gzipPiecePools holds one pool per compression level, indexed by
// level - flate.HuffmanOnly (HuffmanOnly is the lowest valid level, -2).
var gzipPiecePools [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

func init() {
	for i := range gzipPiecePools {
		level := i + flate.HuffmanOnly
		gzipPiecePools[i].New = func() any { return newGzipPiece(level) }
	}
}

func newGzipPiece(level int) *gzipPiece {
	p := &gzipPiece{in: make([]byte, 0, gzipPieceSize), done: make(chan struct{}, 1)}
	p.help = p.helper
	p.fw, _ = flate.NewWriter(&p.out, level) // fails on a level out of range only; the pools have none
	return p
}

// deflate compresses in into out as a self-contained run of deflate
// blocks: byte-aligned by a sync marker so the next piece's blocks can
// follow, or closed by the final block when it is the last.
func (p *gzipPiece) deflate() {
	p.out.Reset()
	p.fw.Reset(&p.out)
	_, p.err = p.fw.Write(p.in)
	switch {
	case p.err != nil:
	case p.last:
		p.err = p.fw.Close()
	default:
		p.err = p.fw.Flush()
	}
}

// gzipBusyHelpers counts the helper goroutines deflating a piece, over
// the whole process: cores are what is shared, not encodes.
var gzipBusyHelpers atomic.Int32

// helper is the body of a helper goroutine.
func (p *gzipPiece) helper() {
	p.deflate()
	gzipBusyHelpers.Add(-1)
	p.done <- struct{}{}
}

// gzipEncoder is the io.Writer the inner codec encodes into. It cuts
// what arrives into pieces and writes their deflate streams to w in
// order, between one gzip header and one trailer: one standard member,
// laid out as pigz lays out its own, that any inflater reads.
//
// A full piece goes to a helper goroutine only if the process has a
// core to spare — fewer than GOMAXPROCS−1 helpers busy, tried once,
// never queued for; otherwise the caller deflates it itself. So the
// inner codec keeps encoding rows while helpers deflate, a saturated
// process or GOMAXPROCS=1 pays the serial cost and no more, and at most
// GOMAXPROCS pieces exist per encode however large the block. The bytes
// written are a function of the inner bytes and the level alone: the
// cuts are at fixed offsets and every piece starts from a Reset writer,
// whoever runs it.
type gzipEncoder struct {
	w       io.Writer
	pool    *sync.Pool   // pieces at this encode's level
	helpers int          // GOMAXPROCS−1 when the encode began
	cur     *gzipPiece   // being filled
	pending []*gzipPiece // with helpers, oldest first
	free    []*gzipPiece // written out, reusable by this encode
	crc     uint32       // of the inner bytes so far
	size    uint32       // their count mod 2^32 (ISIZE)
	err     error        // first failure of a piece or of w
	buf     [10]byte     // header, then trailer
}

var gzipEncoderPool = sync.Pool{New: func() any { return new(gzipEncoder) }}

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
		// inner stream is a whole number of pieces long.
		if len(e.cur.in) == gzipPieceSize {
			if e.cut(); e.err != nil {
				return len(b) - len(rest), e.err
			}
		}
		n := copy(e.cur.in[len(e.cur.in):gzipPieceSize], rest)
		e.cur.in = e.cur.in[:len(e.cur.in)+n]
		rest = rest[n:]
	}
	return len(b), nil
}

// piece returns an empty piece: one this encode is done with, else one
// from the pool.
func (e *gzipEncoder) piece() *gzipPiece {
	var p *gzipPiece
	if n := len(e.free); n > 0 {
		p, e.free = e.free[n-1], e.free[:n-1]
	} else {
		p = e.pool.Get().(*gzipPiece)
	}
	p.in, p.last = p.in[:0], false
	return p
}

// cut sends the full current piece on its way and starts the next.
func (e *gzipEncoder) cut() {
	e.join(false)
	p := e.cur
	if len(e.pending) < e.helpers && acquireGzipHelper(e.helpers) {
		e.pending = append(e.pending, p)
		go p.help()
	} else {
		p.deflate()
		e.join(true)
		e.emit(p)
	}
	e.cur = e.piece()
}

// acquireGzipHelper claims one of the process's limit helper slots, if
// one is free right now.
func acquireGzipHelper(limit int) bool {
	for {
		n := gzipBusyHelpers.Load()
		if int(n) >= limit {
			return false
		}
		if gzipBusyHelpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// join emits the pieces helpers have finished, oldest first, stopping
// at the first one still running — or waiting for each in turn.
func (e *gzipEncoder) join(wait bool) {
	for len(e.pending) > 0 {
		p := e.pending[0]
		if wait {
			<-p.done
		} else {
			select {
			case <-p.done:
			default:
				return
			}
		}
		n := copy(e.pending, e.pending[1:])
		e.pending[n] = nil
		e.pending = e.pending[:n]
		e.emit(p)
	}
}

// emit writes a deflated piece to w (nothing, once the encode has
// failed) and takes the piece back for reuse.
func (e *gzipEncoder) emit(p *gzipPiece) {
	if e.err == nil {
		e.err = p.err
	}
	if e.err == nil {
		_, e.err = e.w.Write(p.out.Bytes())
	}
	e.free = append(e.free, p)
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
	e := gzipEncoderPool.Get().(*gzipEncoder)
	e.w, e.pool, e.helpers = w, &gzipPiecePools[level-flate.HuffmanOnly], runtime.GOMAXPROCS(0)-1
	e.crc, e.size, e.err = 0, 0, nil
	e.cur = e.piece()
	defer e.release()

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
	e.cur.last = true
	e.cur.deflate()
	e.join(true)
	e.emit(e.cur)
	e.cur = nil
	if e.err != nil {
		return e.err
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], e.crc)
	binary.LittleEndian.PutUint32(e.buf[4:8], e.size)
	_, err := w.Write(e.buf[:8])
	return err
}

// release joins every helper still running — on every path out of
// Encode, so no goroutine outlives the call and no piece is pooled
// while one writes to it — and returns the pieces and e to their pools.
func (e *gzipEncoder) release() {
	for i, p := range e.pending {
		<-p.done
		e.pool.Put(p)
		e.pending[i] = nil
	}
	for i, p := range e.free {
		e.pool.Put(p)
		e.free[i] = nil
	}
	if e.cur != nil {
		e.pool.Put(e.cur)
	}
	e.w, e.pool, e.cur, e.pending, e.free = nil, nil, nil, e.pending[:0], e.free[:0]
	gzipEncoderPool.Put(e)
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
