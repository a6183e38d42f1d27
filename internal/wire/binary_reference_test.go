package wire

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"wsopt/internal/minidb"
)

// decodeBinaryReference is the oracle the binary decoder is checked
// against: the layout documented on Binary, read front to back through a
// bufio.Reader with encoding/binary's reader functions — a fresh slice
// per row and a fresh string per cell, no scratch, no arena, nothing
// sized ahead of the bytes that fill it. It enforces the codec's stated
// limits (column count, name length, row count, string length) and no
// other check of the decoder's, so a rewritten decoder that loses one, or
// reads a cell from the wrong offset, disagrees with it.
func decodeBinaryReference(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, nil, fmt.Errorf("bad magic %q", magic[:])
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("column count: %w", err)
	}
	if ncols == 0 || ncols > 4096 {
		return nil, nil, fmt.Errorf("column count %d", ncols)
	}
	var schema minidb.Schema
	for range ncols {
		name, err := readLenPrefixed(br, 4096)
		if err != nil {
			return nil, nil, fmt.Errorf("column name: %w", err)
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, nil, fmt.Errorf("column type: %w", err)
		}
		switch t := minidb.Type(tb); t {
		case minidb.Int64, minidb.Float64, minidb.String, minidb.Date:
			schema = append(schema, minidb.Column{Name: string(name), Type: t})
		default:
			return nil, nil, fmt.Errorf("column type byte %d", tb)
		}
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("row count: %w", err)
	}
	if nrows > maxBlockStrings {
		return nil, nil, fmt.Errorf("row count %d", nrows)
	}
	var rows []minidb.Row
	for i := range nrows {
		row := make(minidb.Row, len(schema))
		for j, col := range schema {
			flag, err := br.ReadByte()
			if err != nil {
				return nil, nil, fmt.Errorf("row %d flag: %w", i, err)
			}
			if flag == flagNull {
				row[j] = minidb.Null(col.Type)
				continue
			}
			if flag != flagValue {
				return nil, nil, fmt.Errorf("row %d flag %d", i, flag)
			}
			switch col.Type {
			case minidb.Int64, minidb.Date:
				v, err := binary.ReadVarint(br)
				if err != nil {
					return nil, nil, fmt.Errorf("row %d varint: %w", i, err)
				}
				row[j] = minidb.Value{Kind: col.Type, I: v}
			case minidb.Float64:
				var b [8]byte
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, nil, fmt.Errorf("row %d float: %w", i, err)
				}
				row[j] = minidb.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			case minidb.String:
				b, err := readLenPrefixed(br, maxBlockStrings)
				if err != nil {
					return nil, nil, fmt.Errorf("row %d string: %w", i, err)
				}
				row[j] = minidb.NewString(string(b))
			}
		}
		rows = append(rows, row)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("trailing data (%v)", err)
	}
	return schema, rows, nil
}

// readLenPrefixed reads a uvarint length of at most limit and that many
// bytes, allocating only what the input actually holds.
func readLenPrefixed(br *bufio.Reader, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("length %d", n)
	}
	b, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err == nil && uint64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// referenceDecoder returns the oracle checkDecode holds codec to, if it
// has one, and whether the two must accept exactly the same inputs. The
// hand-written XML parser accepts a subset of what encoding/xml accepts;
// the binary decoder accepts what its reference does, bare — under gzip
// it also caps the inflated size, which the reference does not.
func referenceDecoder(codec Codec) (ref func(io.Reader) (minidb.Schema, []minidb.Row, error), exact bool) {
	switch c := codec.(type) {
	case XML:
		return decodeXMLReference, false
	case Binary:
		return decodeBinaryReference, true
	case Gzipped:
		inner, _ := referenceDecoder(c.Inner)
		if inner == nil {
			return nil, false
		}
		return func(r io.Reader) (minidb.Schema, []minidb.Row, error) {
			zr, err := gzip.NewReader(r)
			if err != nil {
				return nil, nil, err
			}
			return inner(zr)
		}, false
	}
	return nil, false
}

// TestBinaryDecodeMatchesReference holds the binary decoder, bare and
// under gzip, to its reference on a block with every column type and a
// NULL in every column — plus empty strings, multi-byte runes and
// extreme numbers — and the reference itself to the rows encoded.
func TestBinaryDecodeMatchesReference(t *testing.T) {
	schema := minidb.Schema{
		{Name: "i", Type: minidb.Int64},
		{Name: "s", Type: minidb.String},
		{Name: "f", Type: minidb.Float64},
		{Name: "d", Type: minidb.Date},
		{Name: "t", Type: minidb.String},
	}
	strs := []string{"", "x", "λ日本語", "a\x00b", string(bytes.Repeat([]byte("long "), 60))}
	ints := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), -1.5e300, math.SmallestNonzeroFloat64}
	var rows []minidb.Row
	for i := 0; i < 40; i++ {
		row := minidb.Row{
			minidb.NewInt(ints[i%len(ints)]),
			minidb.NewString(strs[i%len(strs)]),
			minidb.NewFloat(floats[i%len(floats)]),
			minidb.NewDate(ints[(i+2)%len(ints)]),
			minidb.NewString(strs[(i+3)%len(strs)]),
		}
		row[i%len(row)] = minidb.Null(schema[i%len(row)].Type)
		rows = append(rows, row)
	}
	for _, c := range []Codec{Binary{}, Gzip(Binary{})} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			t.Fatal(err)
		}
		ref, _ := referenceDecoder(c)
		rSchema, rRows, err := ref(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Name(), err)
		}
		sameBlock(t, c.Name()+": reference vs encoded", schema, rows, rSchema, rRows)
		checkDecode(t, c, buf.Bytes())
	}
}

// boundaryCell is one cell the word-load boundary table places near the
// end of a payload: its column type, its bytes (flag included), and
// whether the block it ends is well formed.
type boundaryCell struct {
	name  string
	typ   minidb.Type
	bytes []byte
	valid bool
}

// boundaryCells are the cells whose checks the index pass takes a word
// load or its byte-wise fallback for: varints of every length class
// around the 7 bytes a word holds behind a flag, the 10-byte ones
// binary.Uvarint accepts and refuses, a float, strings with 1- and 2-byte
// lengths, a null and bad flags.
func boundaryCells() []boundaryCell {
	varint := func(n int, tenth byte) []byte {
		b := []byte{flagValue}
		for i := 1; i < n; i++ {
			b = append(b, 0x80|byte(i))
		}
		if n == binary.MaxVarintLen64 {
			return append(b, tenth)
		}
		return append(b, 0x05)
	}
	str := func(n int) []byte {
		return append(binary.AppendUvarint([]byte{flagValue}, uint64(n)), bytes.Repeat([]byte{'s'}, n)...)
	}
	var cells []boundaryCell
	for _, typ := range []minidb.Type{minidb.Int64, minidb.Date} {
		for _, n := range []int{1, 7, 8, 9, 10} {
			cells = append(cells, boundaryCell{fmt.Sprintf("%v/varint=%dB", typ, n), typ, varint(n, 1), true})
		}
		cells = append(cells, boundaryCell{fmt.Sprintf("%v/varint=10B,tenth=2", typ), typ, varint(10, 2), false})
	}
	float := binary.LittleEndian.AppendUint64([]byte{flagValue}, math.Float64bits(-1.5))
	return append(cells,
		boundaryCell{"float", minidb.Float64, float, true},
		boundaryCell{"string/len=0", minidb.String, str(0), true},
		boundaryCell{"string/len=5", minidb.String, str(5), true},
		boundaryCell{"string/len=127", minidb.String, str(127), true},
		boundaryCell{"string/len=200", minidb.String, str(200), true},
		boundaryCell{"null", minidb.Int64, []byte{flagNull}, true},
		boundaryCell{"flag=2", minidb.Int64, []byte{2, 0x05}, false},
		boundaryCell{"flag=0xff", minidb.String, []byte{0xff, 0x00}, false},
	)
}

// boundaryBlock is a one-row block whose first cell is cell and whose
// last `tail` bytes are the null cells of tail INT64 columns, so that the
// cell ends exactly tail bytes before the end of the payload.
func boundaryBlock(cell boundaryCell, tail int) []byte {
	schema := minidb.Schema{{Name: "x", Type: cell.typ}}
	for i := range tail {
		schema = append(schema, minidb.Column{Name: fmt.Sprintf("t%d", i), Type: minidb.Int64})
	}
	b, err := (Binary{}).AppendBlock(nil, schema, nil)
	if err != nil {
		panic(err)
	}
	b = append(b[:len(b)-1], 1) // one row
	b = append(b, cell.bytes...)
	return append(b, bytes.Repeat([]byte{flagNull}, tail)...)
}

// wordBoundaryCase is one input of the boundary table.
type wordBoundaryCase struct {
	name  string
	data  []byte
	valid bool
}

// wordBoundaryCases places every boundary cell 0 to 10 bytes before the
// end of its payload, whole, and cut short two ways: the payload ending
// early, and the cell's last byte dropped with the bytes behind it kept,
// so that the check reads them as the cell's. A string whose length is
// exactly the bytes left, and one more than that, are among them.
func wordBoundaryCases() []wordBoundaryCase {
	var cases []wordBoundaryCase
	for _, cell := range boundaryCells() {
		for tail := 0; tail <= 10; tail++ {
			whole := boundaryBlock(cell, tail)
			name := fmt.Sprintf("%s/tail=%d", cell.name, tail)
			cases = append(cases, wordBoundaryCase{name, whole, cell.valid})
			for cut := 1; cut <= len(cell.bytes)+tail && cut <= 12; cut++ {
				cases = append(cases, wordBoundaryCase{fmt.Sprintf("%s/payload-%d", name, cut), whole[:len(whole)-cut], false})
			}
			if len(cell.bytes) > 1 {
				short := append([]byte(nil), whole[:len(whole)-tail-1]...)
				cases = append(cases, wordBoundaryCase{name + "/cell-1", append(short, whole[len(whole)-tail:]...), false})
			}
		}
	}
	// A string length — one byte and two — equal to the bytes after it,
	// and one past them.
	for _, rest := range []int{0, 1, 2, 6, 7, 8, 9, 10, 128, 135, 136, 137} {
		for _, extra := range []int{0, 1} {
			length := binary.AppendUvarint([]byte{flagValue}, uint64(rest+extra))
			data := boundaryBlock(boundaryCell{typ: minidb.String, bytes: length}, 0)
			data = append(data, bytes.Repeat([]byte{'r'}, rest)...)
			cases = append(cases, wordBoundaryCase{fmt.Sprintf("string/len=rest+%d/rest=%d", extra, rest), data, extra == 0})
		}
	}
	return cases
}

// TestBinaryIndexWordBoundaries holds the index pass to the reference
// wherever its one-word check of a cell meets the payload's end: the two
// accept exactly the well-formed cases, and read an accepted one as the
// same rows (checkDecode).
func TestBinaryIndexWordBoundaries(t *testing.T) {
	for _, c := range wordBoundaryCases() {
		t.Run(c.name, func(t *testing.T) {
			_, _, rErr := decodeBinaryReference(bytes.NewReader(c.data))
			_, vErr := ViewBlock(Binary{}, bytes.NewReader(c.data), new(Scratch))
			if (rErr == nil) != c.valid || (vErr == nil) != c.valid {
				t.Fatalf("well formed: %v; reference err %v, view err %v\n%q", c.valid, rErr, vErr, c.data)
			}
			checkDecode(t, Binary{}, c.data)
		})
	}
}
