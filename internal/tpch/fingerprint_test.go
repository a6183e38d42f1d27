package tpch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"wsopt/internal/minidb"
)

// fingerprint hashes every cell of a table in scan order: kind, null
// flag, integer, float bits and string bytes (length-prefixed), with
// each row's width before its cells.
func fingerprint(t *testing.T, tbl *minidb.Table) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	it := tbl.Scan()
	rows := 0
	for {
		r, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows++
		put(uint64(len(r)))
		for _, v := range r {
			null := uint64(0)
			if v.Null {
				null = 1
			}
			put(uint64(v.Kind))
			put(null)
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			put(uint64(len(v.S)))
			h.Write([]byte(v.S))
		}
	}
	return fmt.Sprintf("%d rows %016x", rows, h.Sum64())
}

// TestGenerationFingerprint pins the generated dataset: the constants
// were taken from the one-row-at-a-time generator that preceded the slab
// generator, so a rewrite that changes a single byte of a single cell, or
// the order of the random draws, fails here. (TestGenerationIsDeterministic
// only compares two runs of the same code.)
func TestGenerationFingerprint(t *testing.T) {
	want := map[string]string{
		"0.0001/customer": "15 rows 2cb6ed779de4d2c5",
		"0.0001/orders":   "45 rows f539298afc0463ed",
		"0.01/customer":   "1500 rows 3909130f16fc3539",
		"0.01/orders":     "4500 rows a67bd55379df725c",
		"0.07/customer":   "10500 rows a309fc9d840cbbd0",
		"0.07/orders":     "31500 rows ad4356d7c178ff22",
		"0.2/customer":    "30000 rows 45c270ffa442f390",
		"0.2/orders":      "90000 rows 78cb399d60e5ea33",
	}
	// 0.0001 is a batch of 15 and 45 rows; 0.07 ends both relations on a
	// partial batch after full ones; 0.2 ends them on a full batch.
	seen := 0
	for _, sf := range []float64{0.0001, 0.01, 0.07, 0.2} {
		cat, err := Load(sf)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cat.Names() {
			tbl, err := cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%g/%s", sf, name)
			if got := fingerprint(t, tbl); got != want[key] {
				t.Errorf("%s: fingerprint %q, want %q", key, got, want[key])
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Errorf("fingerprinted %d tables, want %d", seen, len(want))
	}
}
