package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"wsopt/internal/minidb"
)

// Binary is the compact length-prefixed codec. Layout:
//
//	magic "WSB1"
//	uvarint ncols; per column: uvarint len + name bytes, 1 type byte
//	uvarint nrows; per row, per column: 1 flag byte (0=value, 1=null),
//	  then varint (INT64/DATE), 8-byte LE float bits (FLOAT64), or
//	  uvarint len + bytes (STRING)
//
// It exists to quantify the XML/SOAP overhead the paper attributes to web
// services; the service can be switched to it at construction time.
//
// It is also the allocation-lean codec: AppendBlock encodes into a
// caller-supplied byte slice, ViewBlock checks and indexes a block with
// no allocation at all, and DecodeScratch — the index and its rows —
// decodes a whole block with O(1) allocations: the raw payload, row
// headers and value cells live in a reusable Scratch, and every string
// cell of a block is sliced out of one immutable copy of its payload,
// the block's arena.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// ContentType implements Codec.
func (Binary) ContentType() string { return "application/octet-stream" }

var binaryMagic = [4]byte{'W', 'S', 'B', '1'}

const (
	flagValue byte = 0
	flagNull  byte = 1
)

// What a value cell holds after its flag byte, per column of a compiled
// schema (Scratch.kinds): INT64 and DATE a varint, FLOAT64 8 bytes,
// STRING a uvarint length and that many bytes.
const (
	kindVarint byte = iota
	kindFloat
	kindString
)

// kindOf compiles a column type the header check accepted.
var kindOf = [...]byte{minidb.Int64: kindVarint, minidb.Float64: kindFloat, minidb.String: kindString, minidb.Date: kindVarint}

// binEncBufs pools the append buffers behind Encode so steady-state
// encoding does not allocate.
var binEncBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// AppendBlock appends the encoded block to dst and returns the extended
// slice. It is the zero-intermediate encode path: no writer, no
// buffering, just appends.
func (Binary) AppendBlock(dst []byte, schema minidb.Schema, rows []minidb.Row) ([]byte, error) {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(schema)))
	for _, c := range schema {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Type))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for i, r := range rows {
		if len(r) != len(schema) {
			return dst, fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(r), len(schema))
		}
		for j, v := range r {
			if v.Null {
				dst = append(dst, flagNull)
				continue
			}
			dst = append(dst, flagValue)
			switch schema[j].Type {
			case minidb.Int64, minidb.Date:
				dst = binary.AppendVarint(dst, v.I)
			case minidb.Float64:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
			case minidb.String:
				dst = binary.AppendUvarint(dst, uint64(len(v.S)))
				dst = append(dst, v.S...)
			default:
				return dst, fmt.Errorf("wire: cannot encode type %v", schema[j].Type)
			}
		}
	}
	return dst, nil
}

// Encode implements Codec via AppendBlock and a pooled buffer: one
// Write to w per block, no per-value overhead.
func (bc Binary) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	bufp := binEncBufs.Get().(*[]byte)
	defer func() {
		binEncBufs.Put(bufp)
	}()
	b, err := bc.AppendBlock((*bufp)[:0], schema, rows)
	*bufp = b[:0] // keep the grown capacity pooled
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// maxBlockStrings caps string and count lengths during decode as a defence
// against corrupt or hostile payloads.
const maxBlockStrings = 1 << 26

// Decode implements Codec. It is DecodeScratch with a throwaway scratch,
// so the returned rows own fresh memory.
func (bc Binary) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	return bc.DecodeScratch(r, nil)
}

// byteParser walks an in-memory payload.
type byteParser struct {
	b   []byte
	off int
}

func (p *byteParser) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, false
	}
	p.off += n
	return v, true
}

func (p *byteParser) byte() (byte, bool) {
	if p.off >= len(p.b) {
		return 0, false
	}
	b := p.b[p.off]
	p.off++
	return b, true
}

func (p *byteParser) take(n int) ([]byte, bool) {
	if n < 0 || p.off+n > len(p.b) {
		return nil, false
	}
	b := p.b[p.off : p.off+n]
	p.off += n
	return b, true
}

// DecodeScratch implements ScratchDecoder: it indexes the block (index)
// and builds every row from the index at once (View.Rows), into the
// scratch's reusable arrays. String cells are sliced out of the block's
// arena — one immutable string copy of the payload, taken when the rows
// are built and the schema has a string column — so they (unlike the row
// and value slices themselves) remain valid even after the scratch is
// reused; a shallow Value copy retains a cell forever, and with it the
// whole payload it was sliced from. Column names are only materialized
// when the header differs from the previous block's — the blocks of a
// session share their schema allocation.
func (bc Binary) DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	return eager(bc.index(r, s))
}

// index reads the whole payload into the scratch's raw buffer and
// checks it (check). A nil s is a fresh one.
func (bc Binary) index(r io.Reader, s *Scratch) (View, error) {
	if s == nil {
		s = new(Scratch)
	}
	s.gen++
	raw, err := readAllReuse(r, s.raw[:0])
	s.raw = raw
	if err != nil {
		return View{}, fmt.Errorf("wire: binary decode: %w", err)
	}
	return bc.check(s)
}

// check is the one code that checks a binary block, the payload in
// s.raw. It runs every check of the layout in order — magic and header,
// the row count against the payload and MaxCells before anything is
// sized by it, each cell's flag byte, varint and string length, trailing
// bytes — writing nothing per cell and one start offset per row
// (s.starts). The view it returns builds rows from that index and checks
// nothing again.
func (bc Binary) check(s *Scratch) (View, error) {
	raw := s.raw
	if uint64(len(raw)) > math.MaxUint32 {
		return View{}, fmt.Errorf("wire: binary decode: %d bytes is past the 4 GiB a block index spans", len(raw))
	}
	p := &byteParser{b: raw}
	magic, ok := p.take(4)
	if !ok {
		return View{}, fmt.Errorf("wire: binary decode: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(magic, binaryMagic[:]) {
		return View{}, fmt.Errorf("wire: bad magic %q", magic)
	}

	schema, err := bc.decodeSchema(p, s)
	if err != nil {
		return View{}, err
	}
	ncols := len(schema)

	nrows, ok := p.uvarint()
	if !ok {
		return View{}, fmt.Errorf("wire: binary decode row count: %w", io.ErrUnexpectedEOF)
	}
	if nrows > maxBlockStrings {
		return View{}, fmt.Errorf("wire: implausible row count %d", nrows)
	}
	// Every cell costs at least its flag byte, so a payload shorter than
	// nrows*ncols cannot be valid — reject before sizing any array by
	// attacker-controlled counts.
	ncells := nrows * uint64(ncols)
	if ncells > uint64(len(raw)-p.off) {
		return View{}, fmt.Errorf("wire: row count %d exceeds payload", nrows)
	}
	if s.MaxCells > 0 && ncells > uint64(s.MaxCells) {
		return View{}, fmt.Errorf("wire: binary decode: %d rows of %d columns: %w", nrows, ncols, ErrTooManyCells)
	}

	if uint64(cap(s.starts)) < nrows {
		s.starts = make([]uint32, nrows)
	}
	starts := s.starts[:nrows]
	kinds := s.kinds
	last := len(raw) - 8 // the last offset a word load may start at
	off := p.off
	for i := range starts {
		starts[i] = uint32(off)
		for j, k := range kinds {
			// The common cell is checked from one word: its flag byte and
			// the seven bytes behind it. The payload's last bytes, a long
			// varint or string length and every failure take checkCell,
			// the byte-wise check, which names what is wrong.
			if off <= last {
				// A constant capacity spares the slice the masking of
				// its base that would lengthen the chain from one
				// cell's offset to the next's.
				w := binary.LittleEndian.Uint64(raw[off : off+8 : off+8])
				if byte(w) == flagNull {
					off++
					continue
				}
				if byte(w) == flagValue {
					switch k {
					case kindVarint:
						// A varint ends at its first byte below 0x80; one
						// that ends inside the word is at most 7 bytes long,
						// so binary.Uvarint accepts it.
						if ends := ^w & 0x8080808080808000; ends != 0 {
							off += bits.TrailingZeros64(ends)>>3 + 1
							continue
						}
					case kindFloat:
						if off < last { // the flag and 8 bytes remain
							off += 9
							continue
						}
					case kindString:
						if sl := int(w>>8) & 0xff; sl < 0x80 && off+2+sl <= len(raw) {
							off += 2 + sl
							continue
						}
					}
				}
			}
			if off, err = checkCell(raw, off, schema[j].Type, i); err != nil {
				return View{}, err
			}
		}
	}

	if off != len(raw) {
		return View{}, fmt.Errorf("wire: binary decode: %d bytes of trailing data", len(raw)-off)
	}
	return View{schema: schema, n: int(nrows), s: s, gen: s.gen}, nil
}

// checkCell checks the cell at raw[off:] byte by byte — flag, then the
// value its column type t lays out — and returns the offset past it, or
// the error that names row's failure.
func checkCell(raw []byte, off int, t minidb.Type, row int) (int, error) {
	if off == len(raw) {
		return 0, fmt.Errorf("wire: binary decode row %d: %w", row, io.ErrUnexpectedEOF)
	}
	flag := raw[off]
	off++
	if flag == flagNull {
		return off, nil
	}
	if flag != flagValue {
		return 0, fmt.Errorf("wire: bad value flag %d at row %d", flag, row)
	}
	switch t {
	case minidb.Int64:
		if _, off = uvarintAt(raw, off); off < 0 {
			return 0, fmt.Errorf("wire: binary decode int at row %d: %w", row, io.ErrUnexpectedEOF)
		}
	case minidb.Date:
		if _, off = uvarintAt(raw, off); off < 0 {
			return 0, fmt.Errorf("wire: binary decode date at row %d: %w", row, io.ErrUnexpectedEOF)
		}
	case minidb.Float64:
		if len(raw)-off < 8 {
			return 0, fmt.Errorf("wire: binary decode float at row %d: %w", row, io.ErrUnexpectedEOF)
		}
		off += 8
	case minidb.String:
		sl, next := uvarintAt(raw, off)
		if next < 0 || sl > maxBlockStrings {
			return 0, fmt.Errorf("wire: binary decode string length at row %d: invalid", row)
		}
		if sl > uint64(len(raw)-next) {
			return 0, fmt.Errorf("wire: binary decode string at row %d: %w", row, io.ErrUnexpectedEOF)
		}
		off = next + int(sl)
	}
	return off, nil
}

// uvarintAt decodes the uvarint at b[off:] as binary.Uvarint does and
// returns it with the offset past it, or with -1 where binary.Uvarint
// rejects it: truncated, or past 64 bits (more than ten bytes, or a tenth
// above 1). A signed varint is valid exactly when its unsigned reading
// is. Unlike binary.Uvarint, it inlines.
func uvarintAt(b []byte, off int) (uint64, int) {
	var u uint64
	for i := off; i < len(b) && i-off < binary.MaxVarintLen64; i++ {
		u |= uint64(b[i]&0x7f) << (7 * (i - off))
		if b[i] < 0x80 {
			if i-off == binary.MaxVarintLen64-1 && b[i] > 1 {
				return 0, -1
			}
			return u, i + 1
		}
	}
	return 0, -1
}

// binaryRows builds the n rows of the block index left in s, trusting
// the index: every byte it reads was checked by the pass that wrote it.
// One arena per block: one immutable copy of the whole payload, and every
// string cell the slice of it where its bytes lie in raw. The pooled raw
// is never aliased and nothing mutates the arena, so retained cells stay
// intact.
func (s *Scratch) binaryRows(schema minidb.Schema, n int) []minidb.Row {
	ncols := len(schema)
	if cap(s.vals) < n*ncols {
		s.vals = make([]minidb.Value, n*ncols)
	}
	if cap(s.rows) < n {
		s.rows = make([]minidb.Row, n)
	}
	vals, rows, raw := s.vals[:n*ncols], s.rows[:n], s.raw
	var arena string
	for _, c := range schema {
		if c.Type == minidb.String {
			arena = string(raw)
			break
		}
	}
	for i, start := range s.starts[:n] {
		off := int(start)
		row := minidb.Row(vals[i*ncols : (i+1)*ncols : (i+1)*ncols])
		for j, c := range schema {
			flag := raw[off]
			off++
			if flag == flagNull {
				setCell(&row[j], c.Type, true, 0, 0, "")
				continue
			}
			switch c.Type {
			case minidb.Int64, minidb.Date:
				u, next := uvarintAt(raw, off)
				off = next
				setCell(&row[j], c.Type, false, int64(u>>1)^-int64(u&1), 0, "") // zig-zag, as binary.Varint
			case minidb.Float64:
				setCell(&row[j], c.Type, false, 0, math.Float64frombits(binary.LittleEndian.Uint64(raw[off:])), "")
				off += 8
			case minidb.String:
				sl, next := uvarintAt(raw, off)
				off = next + int(sl)
				setCell(&row[j], c.Type, false, 0, 0, arena[next:off])
			}
		}
		rows[i] = row
	}
	return rows
}

// setCell stores a cell field by field. A Value has five fields, one too
// many for the compiler to assign it whole in registers: `row[j] = v`
// zeroes the cell first, through the GC's bulk write barrier whenever a
// collection is marking — about a fifth of building a block's rows.
func setCell(v *minidb.Value, kind minidb.Type, null bool, i int64, f float64, s string) {
	v.Kind, v.Null, v.I, v.F, v.S = kind, null, i, f, s
}

// decodeSchema parses the column header, reusing the cached schema when
// the raw header bytes are identical to the previous block's.
func (Binary) decodeSchema(p *byteParser, s *Scratch) (minidb.Schema, error) {
	keyStart := p.off
	ncols, ok := p.uvarint()
	if !ok {
		return nil, fmt.Errorf("wire: binary decode column count: %w", io.ErrUnexpectedEOF)
	}
	if ncols == 0 || ncols > 4096 {
		return nil, fmt.Errorf("wire: implausible column count %d", ncols)
	}
	// First pass: validate and find the header end without materializing
	// any name.
	savedOff := p.off
	for i := uint64(0); i < ncols; i++ {
		nameLen, ok := p.uvarint()
		if !ok || nameLen > 4096 {
			return nil, fmt.Errorf("wire: binary decode column name length: invalid")
		}
		if _, ok := p.take(int(nameLen)); !ok {
			return nil, fmt.Errorf("wire: binary decode column name: %w", io.ErrUnexpectedEOF)
		}
		tb, ok := p.byte()
		if !ok {
			return nil, fmt.Errorf("wire: binary decode column type: %w", io.ErrUnexpectedEOF)
		}
		t := minidb.Type(tb)
		if t < minidb.Int64 || t > minidb.Date {
			return nil, fmt.Errorf("wire: bad column type byte %d", tb)
		}
	}
	key := p.b[keyStart:p.off]
	if s.schemaCodec == "binary" && bytes.Equal(key, s.schemaRaw) {
		return s.schema, nil
	}
	// Schema changed (or first block): materialize it once and cache.
	q := &byteParser{b: p.b, off: savedOff}
	schema := make(minidb.Schema, ncols)
	for i := range schema {
		nameLen, _ := q.uvarint()
		name, _ := q.take(int(nameLen))
		tb, _ := q.byte()
		schema[i] = minidb.Column{Name: string(name), Type: minidb.Type(tb)}
	}
	s.kinds = s.kinds[:0]
	for _, c := range schema {
		s.kinds = append(s.kinds, kindOf[c.Type])
	}
	s.cacheSchema("binary", schema, key)
	return schema, nil
}
