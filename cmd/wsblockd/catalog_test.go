package main

import (
	"io"
	"log"
	"testing"

	"wsopt/internal/tpch"
)

// TestLoadCatalogKeepsScalesApart: -data caches each -sf on its own, so
// a restart at another scale over the same directory generates that
// scale instead of serving the tables of the last one, and a restart at
// the first scale loads what it cached.
func TestLoadCatalogKeepsScalesApart(t *testing.T) {
	dir := t.TempDir()
	logger := log.New(io.Discard, "", 0)
	for _, sf := range []float64{0.001, 0.002, 0.001} {
		cat, err := loadCatalog(&options{sf: sf, dataDir: dir}, logger)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := cat.Table("customer")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tbl.RowCount(), tpch.CustomerCount(sf); got != want {
			t.Fatalf("-sf %g over a shared -data: customer holds %d rows, want %d", sf, got, want)
		}
	}
}
