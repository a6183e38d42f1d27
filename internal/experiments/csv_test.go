package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() Report {
	return Report{
		ID:      "sample",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `quo"ted`}},
		Notes:   []string{"first note"},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("header wrong: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Fatal("comma cell not quoted")
	}
	if !strings.Contains(out, `"quo""ted"`) {
		t.Fatal("quote cell not escaped")
	}
	if !strings.Contains(out, "# first note\n") {
		t.Fatal("notes missing")
	}
}

func TestMarkdownTable(t *testing.T) {
	md := sampleReport().MarkdownTable()
	for _, want := range []string{"**sample**", "| a | b |", "|---|---|", "| 1 | x,y |", "*first note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown lacks %q:\n%s", want, md)
		}
	}
}

func TestSaveAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	paths, err := SaveAll(dir, "csv", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(IDs()) {
		t.Fatalf("wrote %d files, want %d", len(paths), len(IDs()))
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
		if filepath.Ext(p) != ".csv" {
			t.Fatalf("%s has wrong extension", p)
		}
	}
	if _, err := SaveAll(dir, "yaml", fastOpts()); err == nil {
		t.Fatal("unknown format should error")
	}
}
