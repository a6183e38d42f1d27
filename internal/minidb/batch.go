package minidb

import "slices"

// batchRows is the most rows a Batch holds before it loads them.
const batchRows = 10_000

// textSlack is the room Text leaves past the arena's end: more than the
// longest string of the generated relations, so that a string appended
// to the arena does not grow it by append's small steps.
const textSlack = 1 << 10

// A Batch builds rows for one table and bulk-loads them 10 000 at a
// time, in a few allocations per batch instead of one per row or cell:
//
//   - the cells of a batch are one slab of rows × width Values, and each
//     row is a sub-slice of it whose capacity is its width, so appending
//     to a row copies it instead of overwriting the next row;
//   - the bytes of the batch's strings are appended to one arena, which
//     becomes one string when the batch is loaded, and each string cell
//     holds a substring of it.
//
// The arena is copied into that string, so it is reused by the next
// batch while the loaded strings stay as they were. The slab is not
// reused: the table keeps its rows. The row headers and the string cells
// are sized from the first slab, and the arena doubles as it fills, so a
// batch does not copy itself again and again while it grows.
type Batch struct {
	table *Table
	width int
	texts int // string columns: the most string cells a row holds
	left  int // rows the caller has yet to start, bounding the next slab

	cells []Value // the current slab; len = width × rows started
	rows  []Row
	text  []byte
	spans []span
}

// span is a string cell of the current slab whose bytes are
// text[start:end].
type span struct{ cell, start, end int }

// NewBatch starts loading rows into t. rows is how many the caller means
// to add in all; it only sizes the slabs, so that a short table does not
// hold a slab of 10 000 rows.
func NewBatch(t *Table, rows int) *Batch {
	b := &Batch{table: t, width: len(t.schema), left: rows}
	for _, c := range t.schema {
		if c.Type == String {
			b.texts++
		}
	}
	return b
}

// Row starts the next row: width zero Values, which the caller fills in
// place and then ends with EndRow before the next Row.
func (b *Batch) Row() Row {
	if b.cells == nil {
		n := batchRows
		if b.left > 0 {
			n = min(b.left, batchRows)
		}
		b.cells = make([]Value, 0, n*b.width)
		if b.rows == nil { // the first slab is the largest
			b.rows, b.spans = make([]Row, 0, n), make([]span, 0, n*b.texts)
		}
	}
	if b.left > 0 {
		b.left--
	}
	i := len(b.cells)
	b.cells = b.cells[:i+b.width]
	r := Row(b.cells[i : i+b.width : i+b.width])
	b.rows = append(b.rows, r)
	return r
}

// EndRow ends the current row, and loads the batch into the table once
// its slab is full.
func (b *Batch) EndRow() error {
	if len(b.cells) == cap(b.cells) {
		return b.Flush()
	}
	return nil
}

// Text returns the batch's string arena, with at least textSlack bytes
// of room past its end: when it has less, the arena doubles. The caller
// appends one string's bytes to it and hands the result to SetText.
func (b *Batch) Text() []byte {
	if cap(b.text)-len(b.text) < textSlack {
		b.text = slices.Grow(b.text, max(cap(b.text), textSlack))
	}
	return b.text
}

// SetText makes column col of the current row a string: the bytes text
// holds past the arena's end, text being what Text returned with the
// string's bytes appended.
func (b *Batch) SetText(col int, text []byte) {
	cell := len(b.cells) - b.width + col
	b.spans = append(b.spans, span{cell: cell, start: len(b.text), end: len(text)})
	b.text = text
	b.cells[cell] = Value{Kind: String}
}

// Flush loads the rows started since the last load into the table with
// one Table.BulkLoad, which validates every row and appends none if one
// is invalid. Either way the batch starts empty afterwards. Flushing an
// empty batch does nothing.
func (b *Batch) Flush() error {
	if len(b.rows) == 0 {
		return nil
	}
	s := string(b.text)
	for _, sp := range b.spans {
		b.cells[sp.cell].S = s[sp.start:sp.end]
	}
	err := b.table.BulkLoad(b.rows) // copies the row headers
	b.rows, b.text, b.spans, b.cells = b.rows[:0], b.text[:0], b.spans[:0], nil
	return err
}
