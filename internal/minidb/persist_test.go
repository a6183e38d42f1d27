package minidb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadTableRoundTrip(t *testing.T) {
	_, tbl := loadTestTable(t, 123)
	// Add NULLs to exercise the flag path.
	withNull := testRow(999, "late", 1.5, 42)
	withNull[1] = Null(String)
	withNull[2] = Null(Float64)
	if err := tbl.Insert(withNull); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != tbl.Name() {
		t.Fatalf("name = %q, want %q", back.Name(), tbl.Name())
	}
	if back.RowCount() != tbl.RowCount() {
		t.Fatalf("rows = %d, want %d", back.RowCount(), tbl.RowCount())
	}
	a, _ := Collect(tbl.Scan())
	b, _ := Collect(back.Scan())
	for i := range a {
		for j := range a[i] {
			if a[i][j].Null != b[i][j].Null {
				t.Fatalf("row %d col %d NULL flag differs", i, j)
			}
			if a[i][j].Null {
				continue
			}
			if c, err := Compare(a[i][j], b[i][j]); err != nil || c != 0 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(strings.NewReader("not a table")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadTable(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	_, tbl := loadTestTable(t, 50)
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadTable(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated table accepted")
	}
	// A length or count out of bounds names the field and its value.
	header := func(fields ...uint64) []byte {
		b := append([]byte(nil), persistMagic[:]...)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"oversize name", "table name: length 4097", header(4097)},
		{"zero columns", "column count: 0", append(header(1), 't', 0)},
		{"too many columns", "column count: 4097", append(append(header(1), 't'), binary.AppendUvarint(nil, 4097)...)},
	} {
		_, err := LoadTable(bytes.NewReader(tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestSaveLoadCatalog(t *testing.T) {
	dir := t.TempDir()
	cat, _ := loadTestTable(t, 37)
	second, err := cat.CreateTable("other", Schema{{Name: "x", Type: Int64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Insert(Row{NewInt(7)}); err != nil {
		t.Fatal(err)
	}

	if err := SaveCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	// Two .tbl files on disk.
	entries, _ := os.ReadDir(dir)
	tblFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tbl" {
			tblFiles++
		}
	}
	if tblFiles != 2 {
		t.Fatalf("found %d .tbl files, want 2", tblFiles)
	}

	back, err := LoadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := back.Names()
	if len(names) != 2 || names[0] != "other" || names[1] != "t" {
		t.Fatalf("catalog names = %v", names)
	}
	tb, _ := back.Table("t")
	if tb.RowCount() != 37 {
		t.Fatalf("t has %d rows, want 37", tb.RowCount())
	}
	ob, _ := back.Table("other")
	if ob.RowCount() != 1 {
		t.Fatalf("other has %d rows", ob.RowCount())
	}
	// Loaded tables execute queries.
	it, err := back.Execute(Query{Table: "t", Columns: []string{"id"}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := Collect(it)
	if len(rows) != 5 {
		t.Fatalf("query over loaded table returned %d rows", len(rows))
	}
}

func TestLoadCatalogEmptyDir(t *testing.T) {
	if _, err := LoadCatalog(t.TempDir()); err == nil {
		t.Fatal("empty directory should error")
	}
	if _, err := LoadCatalog(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory should error")
	}
}

func TestSaveCatalogOverwrites(t *testing.T) {
	dir := t.TempDir()
	cat, tbl := loadTestTable(t, 5)
	if err := SaveCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(testRow(777, "new", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := SaveCatalog(dir, cat); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := back.Table("t")
	if tb.RowCount() != 6 {
		t.Fatalf("overwrite lost rows: %d", tb.RowCount())
	}
}
