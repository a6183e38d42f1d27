package minidb

import (
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		{Name: "id", Type: Int64},
		{Name: "name", Type: String},
		{Name: "balance", Type: Float64},
		{Name: "joined", Type: Date},
	}
}

func testRow(id int64, name string, bal float64, joined int64) Row {
	return Row{NewInt(id), NewString(name), NewFloat(bal), NewDate(joined)}
}

func loadTestTable(t *testing.T, n int) (*Catalog, *Table) {
	t.Helper()
	cat := NewCatalog()
	tbl, err := cat.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, testRow(int64(i), "row", float64(i)*1.5, int64(10000+i)))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

func TestValueStringRoundTrip(t *testing.T) {
	cases := []Value{
		NewInt(42), NewInt(-7), NewFloat(3.25), NewFloat(-0.001),
		NewString("hello world"), NewDate(12345), Null(Int64), Null(String),
	}
	for _, v := range cases {
		s := v.String()
		back, err := ParseValue(v.Kind, s)
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", v.Kind, s, err)
		}
		if v.Null {
			if !back.Null {
				t.Fatalf("NULL %v did not round-trip", v.Kind)
			}
			continue
		}
		if v.Kind == String && v.S == "" {
			continue // empty string maps to NULL in the text codec by design
		}
		if cmp, err := Compare(v, back); err != nil || cmp != 0 {
			t.Fatalf("round-trip mismatch: %v -> %q -> %v", v, s, back)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(Int64, "abc"); err == nil {
		t.Error("bad int should error")
	}
	if _, err := ParseValue(Float64, "x.y"); err == nil {
		t.Error("bad float should error")
	}
	if _, err := ParseValue(Date, "notadate"); err == nil {
		t.Error("bad date should error")
	}
	if _, err := ParseValue(Type(99), "v"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestCompare(t *testing.T) {
	if c, _ := Compare(NewInt(1), NewInt(2)); c != -1 {
		t.Error("1 < 2")
	}
	if c, _ := Compare(NewString("b"), NewString("a")); c != 1 {
		t.Error("b > a")
	}
	if c, _ := Compare(NewFloat(1.5), NewFloat(1.5)); c != 0 {
		t.Error("1.5 == 1.5")
	}
	if c, _ := Compare(Null(Int64), NewInt(0)); c != -1 {
		t.Error("NULL sorts first")
	}
	if _, err := Compare(NewInt(1), NewString("1")); err == nil {
		t.Error("cross-type comparison must error")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("BALANCE") != 2 {
		t.Error("column lookup should be case-insensitive")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Error("unknown column should return -1")
	}
	sub, idx, err := s.Project([]string{"name", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "name" || idx[1] != 0 {
		t.Fatalf("Project = %v %v", sub, idx)
	}
	if _, _, err := s.Project([]string{"ghost"}); err == nil {
		t.Error("projecting an unknown column must error")
	}
	all, idx, _ := s.Project(nil)
	if len(all) != 4 || idx[3] != 3 {
		t.Error("empty projection should select all columns")
	}
	if !strings.Contains(s.String(), "balance FLOAT64") {
		t.Errorf("schema String() = %q", s.String())
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(testRow(1, "a", 2.5, 100)); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{NewInt(1)}); err == nil {
		t.Error("short row should be rejected")
	}
	bad := testRow(1, "a", 2.5, 100)
	bad[1] = NewInt(7)
	if err := s.Validate(bad); err == nil {
		t.Error("type mismatch should be rejected")
	}
	withNull := testRow(1, "a", 2.5, 100)
	withNull[2] = Null(Float64)
	if err := s.Validate(withNull); err != nil {
		t.Errorf("NULL should conform: %v", err)
	}
	// The zero Value is the non-NULL INT64 0, not a NULL: a STRING column
	// rejects it.
	var zero Value
	if zero.Null || zero.Kind != Int64 || zero.I != 0 || zero.String() != "0" {
		t.Errorf("Value{} = %+v (%q), want the non-NULL INT64 0", zero, zero.String())
	}
	zeroed := testRow(1, "a", 2.5, 100)
	zeroed[1] = Value{}
	if s[1].Type != String {
		t.Fatalf("column 1 is %v, the case needs a STRING column", s[1].Type)
	}
	if err := s.Validate(zeroed); err == nil {
		t.Error("Value{} in a STRING column should be rejected")
	}
}

func TestTableCreationErrors(t *testing.T) {
	if _, err := NewTable("", testSchema()); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Error("empty schema should be rejected")
	}
	if _, err := NewTable("t", Schema{{Name: "a", Type: Int64}, {Name: "a", Type: Int64}}); err == nil {
		t.Error("duplicate column should be rejected")
	}
	if _, err := NewTable("t", Schema{{Name: "", Type: Int64}}); err == nil {
		t.Error("unnamed column should be rejected")
	}
}

func TestInsertAndScan(t *testing.T) {
	_, tbl := loadTestTable(t, 100)
	if tbl.RowCount() != 100 {
		t.Fatalf("RowCount = %d, want 100", tbl.RowCount())
	}
	rows, err := Collect(tbl.Scan())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("scan returned %d rows, want 100", len(rows))
	}
	// Insertion order preserved.
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d", i, r[0].I)
		}
	}
	if err := tbl.Insert(Row{NewInt(1)}); err == nil {
		t.Error("invalid insert should fail")
	}
	if err := tbl.BulkLoad([]Row{testRow(1, "x", 1, 1), {NewInt(2)}}); err == nil {
		t.Error("bulk load with an invalid row should fail atomically")
	}
	if tbl.RowCount() != 100 {
		t.Error("failed bulk load must not append anything")
	}
}

func TestScanSnapshotIsolation(t *testing.T) {
	_, tbl := loadTestTable(t, 10)
	it := tbl.Scan()
	if err := tbl.Insert(testRow(999, "late", 0, 0)); err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("iterator saw %d rows; the snapshot should hold 10", len(rows))
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	if _, err := cat.CreateTable("a", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("a", testSchema()); err == nil {
		t.Error("duplicate table should be rejected")
	}
	if _, err := cat.Table("a"); err != nil {
		t.Error("lookup failed")
	}
	if _, err := cat.Table("missing"); err == nil {
		t.Error("missing table should error")
	}
	if _, err := cat.CreateTable("b", testSchema()); err != nil {
		t.Fatal(err)
	}
	names := cat.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestProjectIterator(t *testing.T) {
	cat, _ := loadTestTable(t, 5)
	it, err := cat.Execute(Query{Table: "t", Columns: []string{"name", "id"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Schema().Names(); got[0] != "name" || got[1] != "id" {
		t.Fatalf("projected schema = %v", got)
	}
	rows, _ := Collect(it)
	if len(rows) != 5 || len(rows[0]) != 2 {
		t.Fatalf("projection shape wrong: %d rows x %d cols", len(rows), len(rows[0]))
	}
	if rows[3][1].I != 3 {
		t.Fatalf("projected value mismatch: %v", rows[3])
	}
}

func TestFilterIterator(t *testing.T) {
	cat, _ := loadTestTable(t, 100)
	it, err := cat.Execute(Query{
		Table: "t",
		Where: Cmp{Op: Lt, L: Col{Name: "id"}, R: Lit{Value: NewInt(10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filter kept %d rows, want 10", len(rows))
	}
}

func TestLimitIterator(t *testing.T) {
	cat, _ := loadTestTable(t, 100)
	it, _ := cat.Execute(Query{Table: "t", Limit: 7})
	rows, _ := Collect(it)
	if len(rows) != 7 {
		t.Fatalf("limit returned %d rows, want 7", len(rows))
	}
}

func TestComposedQuery(t *testing.T) {
	cat, _ := loadTestTable(t, 100)
	it, err := cat.Execute(Query{
		Table:   "t",
		Columns: []string{"id"},
		Where: And{
			L: Cmp{Op: Ge, L: Col{Name: "id"}, R: Lit{Value: NewInt(20)}},
			R: Cmp{Op: Lt, L: Col{Name: "id"}, R: Lit{Value: NewInt(60)}},
		},
		Limit: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := Collect(it)
	if len(rows) != 15 {
		t.Fatalf("composed query returned %d rows, want 15", len(rows))
	}
	if rows[0][0].I != 20 {
		t.Fatalf("first row id = %d, want 20", rows[0][0].I)
	}
}

func TestExecuteErrors(t *testing.T) {
	cat, _ := loadTestTable(t, 1)
	if _, err := cat.Execute(Query{Table: "missing"}); err == nil {
		t.Error("missing table should error")
	}
	if _, err := cat.Execute(Query{Table: "t", Columns: []string{"ghost"}}); err == nil {
		t.Error("unknown projected column should error")
	}
}

func TestNextBlock(t *testing.T) {
	cat, _ := loadTestTable(t, 25)
	it, _ := cat.Execute(Query{Table: "t"})
	var total int
	for {
		rows, done, err := NextBlockAppend(it, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
		if done {
			break
		}
		if len(rows) != 10 {
			t.Fatalf("non-final block has %d rows, want 10", len(rows))
		}
	}
	if total != 25 {
		t.Fatalf("blocks delivered %d rows, want 25", total)
	}
	if _, _, err := NextBlockAppend(it, 0, nil); err == nil {
		t.Error("block size 0 should error")
	}
}

func TestNextBlockExactMultiple(t *testing.T) {
	cat, _ := loadTestTable(t, 20)
	it, _ := cat.Execute(Query{Table: "t"})
	rows, done, _ := NextBlockAppend(it, 10, nil)
	if len(rows) != 10 || done {
		t.Fatal("first block wrong")
	}
	rows, done, _ = NextBlockAppend(it, 10, nil)
	if len(rows) != 10 {
		t.Fatal("second block wrong")
	}
	if !done {
		// The final full block may or may not be flagged done depending on
		// lookahead; the following empty block must be.
		rows, done, _ = NextBlockAppend(it, 10, nil)
		if len(rows) != 0 || !done {
			t.Fatal("exhausted iterator should deliver an empty done block")
		}
	}
}

func TestExpressionLogic(t *testing.T) {
	s := Schema{{Name: "a", Type: Int64}}
	r := Row{NewInt(5)}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Cmp{Op: Eq, L: Col{Name: "a"}, R: IntLit(5)}, 1},
		{Cmp{Op: Ne, L: Col{Name: "a"}, R: IntLit(5)}, 0},
		{Cmp{Op: Le, L: Col{Name: "a"}, R: IntLit(5)}, 1},
		{Cmp{Op: Gt, L: Col{Name: "a"}, R: IntLit(5)}, 0},
		{And{L: Cmp{Op: Gt, L: Col{Name: "a"}, R: IntLit(1)}, R: Cmp{Op: Lt, L: Col{Name: "a"}, R: IntLit(10)}}, 1},
		{Or{L: Cmp{Op: Gt, L: Col{Name: "a"}, R: IntLit(100)}, R: Cmp{Op: Eq, L: Col{Name: "a"}, R: IntLit(5)}}, 1},
		{Not{E: Cmp{Op: Eq, L: Col{Name: "a"}, R: IntLit(5)}}, 0},
	}
	for i, c := range cases {
		v, err := c.e.Eval(r, s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if v.I != c.want {
			t.Errorf("case %d (%s): got %d, want %d", i, c.e, v.I, c.want)
		}
	}
}

func TestExpressionNullSemantics(t *testing.T) {
	s := Schema{{Name: "a", Type: Int64}}
	r := Row{Null(Int64)}
	v, err := Cmp{Op: Eq, L: Col{Name: "a"}, R: IntLit(0)}.Eval(r, s)
	if err != nil || v.I != 0 {
		t.Fatal("comparison with NULL must be false")
	}
}

func TestExpressionErrors(t *testing.T) {
	s := Schema{{Name: "a", Type: Int64}}
	r := Row{NewInt(1)}
	if _, err := (Col{Name: "ghost"}).Eval(r, s); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := (Cmp{Op: Eq, L: Col{Name: "a"}, R: StringLit("x")}).Eval(r, s); err == nil {
		t.Error("cross-type comparison should error")
	}
	if _, err := (And{L: StringLit("x"), R: IntLit(1)}).Eval(r, s); err == nil {
		t.Error("non-boolean operand should error")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	_, tbl := loadTestTable(t, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = tbl.Insert(testRow(int64(10000+w*100+i), "c", 0, 0))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				it := tbl.Scan()
				for {
					_, err := it.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := tbl.RowCount(); got != 1200 {
		t.Fatalf("RowCount = %d, want 1200", got)
	}
}

// Property: pulling any block-size sequence drains exactly the table's
// rows — blocks never duplicate or drop tuples (the invariant the whole
// transfer stack rests on).
func TestBlockPullCompletenessProperty(t *testing.T) {
	f := func(rawSizes []uint8) bool {
		cat, tbl := func() (*Catalog, *Table) {
			cat := NewCatalog()
			tbl, _ := cat.CreateTable("p", Schema{{Name: "id", Type: Int64}})
			rows := make([]Row, 537)
			for i := range rows {
				rows[i] = Row{NewInt(int64(i))}
			}
			_ = tbl.BulkLoad(rows)
			return cat, tbl
		}()
		_ = tbl
		it, err := cat.Execute(Query{Table: "p"})
		if err != nil {
			return false
		}
		seen := make(map[int64]bool)
		si := 0
		for {
			size := 1
			if len(rawSizes) > 0 {
				size = int(rawSizes[si%len(rawSizes)])%97 + 1
				si++
			}
			rows, done, err := NextBlockAppend(it, size, nil)
			if err != nil {
				return false
			}
			for _, r := range rows {
				if seen[r[0].I] {
					return false // duplicate
				}
				seen[r[0].I] = true
			}
			if done {
				break
			}
		}
		return len(seen) == 537
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
