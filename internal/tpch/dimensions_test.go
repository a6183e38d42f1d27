package tpch

import (
	"testing"

	"wsopt/internal/minidb"
)

func TestDimensionTables(t *testing.T) {
	cat := minidb.NewCatalog()
	region, err := GenRegion(cat)
	if err != nil {
		t.Fatal(err)
	}
	nation, err := GenNation(cat)
	if err != nil {
		t.Fatal(err)
	}
	if region.RowCount() != 5 {
		t.Fatalf("regions = %d, want 5", region.RowCount())
	}
	if nation.RowCount() != 25 {
		t.Fatalf("nations = %d, want 25", nation.RowCount())
	}
	// Every nation's region key references an existing region.
	rows, _ := minidb.Collect(nation.Scan())
	for _, r := range rows {
		if rk := r[2].I; rk < 0 || rk > 4 {
			t.Fatalf("nation %s has region key %d", r[1].S, rk)
		}
	}
}

func TestLoadFullIsJoinable(t *testing.T) {
	cat, err := LoadFull(0.005) // 750 customers
	if err != nil {
		t.Fatal(err)
	}
	names := cat.Names()
	if len(names) != 4 {
		t.Fatalf("catalog = %v, want 4 tables", names)
	}
	// customer → nation → region by key lookups, counting customers per
	// region: every foreign key must name a row.
	collect := func(table string, cols ...string) []minidb.Row {
		it, err := cat.Execute(minidb.Query{Table: table, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := minidb.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	regionName := map[int64]string{}
	for _, r := range collect("region", "r_regionkey", "r_name") {
		regionName[r[0].I] = r[1].S
	}
	nationRegion := map[int64]int64{}
	for _, r := range collect("nation", "n_nationkey", "n_regionkey") {
		if _, ok := regionName[r[1].I]; !ok {
			t.Fatalf("nation %d names region %d, which does not exist", r[0].I, r[1].I)
		}
		nationRegion[r[0].I] = r[1].I
	}
	perRegion := map[string]int{}
	for _, r := range collect("customer", "c_custkey", "c_nationkey") {
		rk, ok := nationRegion[r[1].I]
		if !ok {
			t.Fatalf("customer %d names nation %d, which does not exist", r[0].I, r[1].I)
		}
		perRegion[regionName[rk]]++
	}
	if len(perRegion) != 5 {
		t.Fatalf("regions with customers = %d, want 5", len(perRegion))
	}
	total := 0
	for _, n := range perRegion {
		total += n
	}
	if total != CustomerCount(0.005) {
		t.Fatalf("joined customer count = %d, want %d", total, CustomerCount(0.005))
	}
}

func TestDimensionNamesMatchTPCH(t *testing.T) {
	cat := minidb.NewCatalog()
	region, _ := GenRegion(cat)
	rows, _ := minidb.Collect(region.Scan())
	want := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for i, r := range rows {
		if r[1].S != want[i] {
			t.Fatalf("region %d = %q, want %q", i, r[1].S, want[i])
		}
	}
}
