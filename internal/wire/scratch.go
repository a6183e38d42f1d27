package wire

import (
	"errors"
	"io"
	"sync"

	"wsopt/internal/minidb"
)

// This file holds the allocation-lean plumbing shared by the codecs: the
// reusable decode Scratch, the pooled append buffers the streaming
// encoders write through, and the DecodeBlock entry point that picks the
// scratch path when the codec supports it.
//
// Ownership rules (see DESIGN.md §14), the same for the binary and the
// XML codec: a Scratch may only be used by one decode at a time, and the
// rows returned by a scratch decode alias the scratch — they stay valid
// until the next decode that reuses it. String
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
// package; JSON reuses nothing else of it). Codecs without it fall back
// to their plain Decode path under DecodeBlock.
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
