package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"

	"wsopt/internal/minidb"
)

// This file holds the allocation-lean plumbing shared by the codecs: the
// reusable decode Scratch, the pooled append buffers the streaming
// encoders write through, and the entry points — DecodeBlock, which picks
// the scratch path when the codec supports it, ViewBlock, which indexes a
// block whose codec can be indexed and decodes any other, and
// ViewPayload, ViewBlock of a payload already in memory.
//
// Ownership rules (see DESIGN.md §14), the same for the binary and the
// XML codec: a Scratch may only be used by one decode at a time, and the
// rows returned by a scratch decode or a view alias the scratch — they
// stay valid until the next decode that reuses it. String
// cell bytes are NOT part of the scratch: each block's strings live in
// one immutable per-block arena (binary: a copy of the whole payload;
// XML: the unescaped cells), so a shallow copy of the Values (e.g.
// minidb.Row.Clone) is always enough to retain cells beyond the next
// decode — and keeps that block's arena alive.

// Scratch is reusable decode state: the raw-payload buffer, the row and
// value backing arrays, and a cache of the previous block's schema. The
// zero value is ready to use. Not safe for concurrent use.
type Scratch struct {
	// MaxCells, when positive, bounds what a decode into this scratch may
	// materialise: a block of more cells (rows × columns) fails with
	// ErrTooManyCells while it is being decoded, before the arrays that
	// would hold it are sized. A reader of untrusted uploads sets it; the
	// byte caps alone do not bound memory (64 MiB of empty cells decode to
	// a dozen times that).
	MaxCells int

	// raw is the whole encoded (or inflated) payload of the last block.
	raw []byte
	// starts is the binary index of raw: where each row's first cell
	// begins. Offsets fit: every payload a transport hands over is capped
	// at MaxFramePayload, and index refuses one past 4 GiB.
	starts []uint32
	// gen counts the blocks decoded into the scratch, and its retirements:
	// a View is of the generation it was made in, and reads no rows after.
	gen uint64
	// rows and vals back the returned block: rows[i] is a sub-slice of
	// vals, so one decode performs no per-row allocation.
	rows []minidb.Row
	vals []minidb.Value
	// strbuf and spans are the XML decoder's: strbuf accumulates every
	// string cell's unescaped bytes during the parse, and the block's
	// arena is one string conversion of it; spans records (offset,
	// length) pairs, in cell order, for the fix-up pass. (Binary cells
	// need neither: they lie in raw as they are.)
	strbuf []byte
	spans  []int
	// schema caches the previously decoded schema; schemaRaw is the raw
	// header region that produced it and schemaCodec the codec that read
	// it (scratches are pooled across clients, so the next decode may be
	// another codec's). Blocks of one session share a schema, so
	// steady-state decodes re-use it without allocating a single column
	// name.
	schema      minidb.Schema
	schemaRaw   []byte
	schemaCodec string
	// kinds is the cached binary schema compiled for the index pass: one
	// cell kind per column (kindVarint, kindFloat, kindString). It is
	// valid while schemaCodec is "binary".
	kinds []byte
}

// ErrTooManyCells is returned by a decode into a Scratch whose MaxCells
// the block exceeds.
var ErrTooManyCells = errors.New("wire: block has more cells than the decode limit")

// cacheSchema records the schema codec just parsed out of raw.
func (s *Scratch) cacheSchema(codec string, schema minidb.Schema, raw []byte) {
	s.schema, s.schemaCodec = schema, codec
	s.schemaRaw = append(s.schemaRaw[:0], raw...)
}

// ScratchDecoder is implemented by codecs that can decode into a
// caller-supplied Scratch, honouring its MaxCells (every codec of this
// package). Codecs without it fall back to their plain Decode path under
// DecodeBlock.
type ScratchDecoder interface {
	DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error)
}

// DecodeBlock decodes one block with the codec, reusing s when both the
// codec supports it and s is non-nil. The returned schema and rows may
// alias s; they are valid until the next DecodeBlock with the same
// scratch.
func DecodeBlock(c Codec, r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	if sd, ok := c.(ScratchDecoder); ok && s != nil {
		return sd.DecodeScratch(r, s)
	}
	return c.Decode(r)
}

// View is one block whose rows are built when someone first asks for
// them. A view of an indexed block holds no rows: its scratch holds the
// payload and one start offset per row, written by the pass that checked
// every byte, and Rows builds the rows from them once. Any other view
// holds rows decoded eagerly. A view of a scratch is valid until the next
// decode into it or its Retire; Rows panics after that rather than read
// another block's bytes.
type View struct {
	schema minidb.Schema
	n      int
	rows   []minidb.Row
	s      *Scratch // nil: rows alias no scratch
	gen    uint64   // s.gen when the view was made
}

// Len returns the block's row count; it reads no cell.
func (v *View) Len() int { return v.n }

// Schema returns the block's schema.
func (v *View) Schema() minidb.Schema { return v.schema }

// Rows returns the block's rows, building them on the first call. They
// alias the view's scratch, under the same rule as a scratch decode's.
func (v *View) Rows() []minidb.Row {
	if v.s != nil && v.s.gen != v.gen {
		panic("wire: rows of a view read after its scratch was reused or retired (copy the rows before the next decode to keep them)")
	}
	if v.rows == nil && v.n > 0 {
		v.rows = v.s.binaryRows(v.schema, v.n)
	}
	return v.rows
}

// eager is a scratch decode built from a view: its rows, built at once.
func eager(v View, err error) (minidb.Schema, []minidb.Row, error) {
	if err != nil {
		return nil, nil, err
	}
	return v.schema, v.Rows(), nil
}

// RowsView wraps rows that alias no scratch, such as a retained copy.
func RowsView(schema minidb.Schema, rows []minidb.Row) View {
	return View{schema: schema, n: len(rows), rows: rows}
}

// Retire ends the views of the scratch's last block: their Rows panics
// from now on. A pool retires a scratch as it takes it back.
func (s *Scratch) Retire() { s.gen++ }

// ViewBlock reads one block with the codec into a view. A codec with an
// index pass — Binary, and Gzipped over it — is checked and indexed, and
// no cell is built until Rows; any other is decoded eagerly through
// DecodeBlock. With a nil s the view's rows alias no one else's memory.
func ViewBlock(c Codec, r io.Reader, s *Scratch) (View, error) {
	switch c := c.(type) {
	case Binary:
		return c.index(r, s)
	case Gzipped:
		return c.view(r, s)
	}
	schema, rows, err := DecodeBlock(c, r, s)
	v := RowsView(schema, rows)
	if s != nil { // the decode ends the views of the scratch's last block
		s.gen++
		v.s, v.gen = s, s.gen
	}
	return v, err
}

// ViewPayload is ViewBlock of a payload already in memory, without the
// copy: under Binary the scratch adopts payload as its raw buffer and
// returns the buffer it held, which no view aliases any more, for the
// caller to read its next payload into. Under any other codec — Gzipped
// inflates into the scratch's own buffer — payload is read as ViewBlock
// reads a reader and handed back. Either way the caller owns the
// returned buffer and gives up payload; with a nil s nothing is adopted.
func ViewPayload(c Codec, payload []byte, s *Scratch) (View, []byte, error) {
	if bc, ok := c.(Binary); ok && s != nil {
		spare := s.raw[:0]
		s.gen++
		s.raw = payload
		v, err := bc.check(s)
		return v, spare, err
	}
	v, err := ViewBlock(c, bytes.NewReader(payload), s)
	return v, payload, err
}

// readAllReuse reads r to EOF into buf's backing array (grown as
// needed), so a reused buffer makes the whole read allocation-free.
func readAllReuse(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// encodeBuf is a pooled append buffer the streaming encoders write rows
// through: bytes accumulate in buf and flush to w whenever a row
// boundary crosses the threshold, so encoding is one Write per ~32 KiB
// instead of one per value, with bounded memory however large the block.
type encodeBuf struct {
	w   io.Writer
	buf []byte
	err error
}

const encodeFlushThreshold = 32 << 10

var encBufPool = sync.Pool{
	New: func() any { return &encodeBuf{buf: make([]byte, 0, encodeFlushThreshold+4096)} },
}

func newEncodeBuf(w io.Writer) *encodeBuf {
	e := encBufPool.Get().(*encodeBuf)
	e.w, e.buf, e.err = w, e.buf[:0], nil
	return e
}

// release returns the buffer to the pool; callers must be done with it.
func (e *encodeBuf) release() {
	e.w = nil
	encBufPool.Put(e)
}

func (e *encodeBuf) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *encodeBuf) str(s string) { e.buf = append(e.buf, s...) }
func (e *encodeBuf) raw(b []byte) { e.buf = append(e.buf, b...) }

// maybeFlush writes the accumulated bytes out once they cross the
// threshold. Call at row boundaries.
func (e *encodeBuf) maybeFlush() {
	if len(e.buf) >= encodeFlushThreshold {
		e.flush()
	}
}

func (e *encodeBuf) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// finish flushes the remainder and reports the first write error.
func (e *encodeBuf) finish() error {
	e.flush()
	return e.err
}
