package tpch

import (
	"fmt"
	"math/rand"

	"wsopt/internal/minidb"
)

// The fixed TPC-H dimension tables: REGION (5 rows) and NATION (25 rows),
// with the standard keys and region assignments. They make the generated
// catalog joinable end to end (customer -> nation -> region), as in the
// benchmark proper.

// RegionSchema is the TPC-H REGION relation.
func RegionSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "r_regionkey", Type: minidb.Int64},
		{Name: "r_name", Type: minidb.String},
		{Name: "r_comment", Type: minidb.String},
	}
}

// NationSchema is the TPC-H NATION relation.
func NationSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "n_nationkey", Type: minidb.Int64},
		{Name: "n_name", Type: minidb.String},
		{Name: "n_regionkey", Type: minidb.Int64},
		{Name: "n_comment", Type: minidb.String},
	}
}

// regionNames are the five TPC-H regions in key order.
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationTable lists the 25 TPC-H nations with their standard region keys.
var nationTable = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

// GenRegion creates and fills the "region" table.
func GenRegion(cat *minidb.Catalog) (*minidb.Table, error) {
	t, err := cat.CreateTable("region", RegionSchema())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(5))
	b := minidb.NewBatch(t, len(regionNames))
	for i, name := range regionNames {
		r := b.Row()
		r[0] = minidb.NewInt(int64(i))
		r[1] = minidb.NewString(name)
		b.SetText(2, appendComment(b.Text(), rng, 5+rng.Intn(8)))
		if err := b.EndRow(); err != nil {
			return nil, err
		}
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// GenNation creates and fills the "nation" table.
func GenNation(cat *minidb.Catalog) (*minidb.Table, error) {
	t, err := cat.CreateTable("nation", NationSchema())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(6))
	b := minidb.NewBatch(t, len(nationTable))
	for i, n := range nationTable {
		r := b.Row()
		r[0] = minidb.NewInt(int64(i))
		r[1] = minidb.NewString(n.name)
		r[2] = minidb.NewInt(n.region)
		b.SetText(3, appendComment(b.Text(), rng, 4+rng.Intn(8)))
		if err := b.EndRow(); err != nil {
			return nil, err
		}
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadFull generates the complete joinable catalog: region, nation,
// customer and orders at the given scale factor.
func LoadFull(sf float64) (*minidb.Catalog, error) {
	cat, err := Load(sf)
	if err != nil {
		return nil, err
	}
	if _, err := GenRegion(cat); err != nil {
		return nil, fmt.Errorf("tpch: %w", err)
	}
	if _, err := GenNation(cat); err != nil {
		return nil, fmt.Errorf("tpch: %w", err)
	}
	return cat, nil
}
