package minidb

import (
	"fmt"
	"strings"
	"testing"
)

// batchRow adds the row (k, "s<k>", 2.5*k) to b, the string through the
// batch's arena, and returns it; f, if not nil, edits it before EndRow.
func batchRow(t *testing.T, b *Batch, k int, f func(Row)) Row {
	t.Helper()
	r := b.Row()
	r[0] = NewInt(int64(k))
	b.SetText(1, fmt.Appendf(b.Text(), "s%d", k))
	r[2] = NewFloat(2.5 * float64(k))
	if f != nil {
		f(r)
	}
	if err := b.EndRow(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBatch(t *testing.T) {
	schema := Schema{{Name: "k", Type: Int64}, {Name: "s", Type: String}, {Name: "f", Type: Float64}}
	cases := []struct {
		name string
		run  func(t *testing.T, tbl *Table)
	}{
		{"append to a row leaves its neighbour", func(t *testing.T, tbl *Table) {
			b := NewBatch(tbl, 3)
			r0 := batchRow(t, b, 0, nil)
			batchRow(t, b, 1, nil)
			if len(r0) != len(schema) || cap(r0) != len(schema) {
				t.Fatalf("row len %d cap %d, want both %d", len(r0), cap(r0), len(schema))
			}
			grown := append(r0, NewInt(99))
			grown[0] = NewInt(-1)
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			rows, _ := Collect(tbl.Scan())
			if rows[0][0].I != 0 || rows[1][0].I != 1 || rows[1][1].S != "s1" {
				t.Fatalf("rows after an append to row 0: %v", rows)
			}
		}},
		{"strings survive the next batch", func(t *testing.T, tbl *Table) {
			b := NewBatch(tbl, 2*batchRows+5)
			for k := 0; k < 2*batchRows+5; k++ {
				batchRow(t, b, k, nil)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			rows, _ := Collect(tbl.Scan())
			if len(rows) != 2*batchRows+5 {
				t.Fatalf("%d rows, want %d", len(rows), 2*batchRows+5)
			}
			for k, r := range rows {
				if r[0].I != int64(k) || r[1].S != fmt.Sprintf("s%d", k) || r[2].F != 2.5*float64(k) {
					t.Fatalf("row %d = %v", k, r)
				}
			}
		}},
		{"an invalid batch appends nothing", func(t *testing.T, tbl *Table) {
			b := NewBatch(tbl, 10)
			batchRow(t, b, 0, nil)
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			batchRow(t, b, 1, nil)
			batchRow(t, b, 2, func(r Row) { r[2] = NewString("not a float") })
			err := b.Flush()
			if err == nil || !strings.Contains(err.Error(), "bulk load row 1") {
				t.Fatalf("Flush of an invalid row: err = %v", err)
			}
			if n := tbl.RowCount(); n != 1 {
				t.Fatalf("%d rows after the invalid batch, want the 1 loaded before it", n)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl, err := NewTable("t", schema)
			if err != nil {
				t.Fatal(err)
			}
			c.run(t, tbl)
		})
	}
}
