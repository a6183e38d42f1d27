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
