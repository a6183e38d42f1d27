// Package tpch generates deterministic TPC-H-style data for the paper's
// workloads: the CUSTOMER relation (150,000 rows at scale factor 1, the
// result set of the paper's WAN experiments) and the ORDERS relation
// (generated at 450,000 rows at scale factor 1 — the cardinality of the
// paper's "3 times more tuples" Orders result set in conf2.2, rather than
// the full nominal TPC-H 1.5M, to keep the live examples memory-friendly;
// the controllers only care about the result cardinality and tuple width).
//
// Generation is seeded and reproducible: the same scale factor always
// yields byte-identical relations.
package tpch

import (
	"fmt"
	"math/rand"
	"strconv"

	"wsopt/internal/minidb"
)

// Cardinalities at scale factor 1.
const (
	CustomersPerSF = 150_000
	OrdersPerSF    = 450_000
)

// CustomerSchema is the TPC-H CUSTOMER relation.
func CustomerSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "c_custkey", Type: minidb.Int64},
		{Name: "c_name", Type: minidb.String},
		{Name: "c_address", Type: minidb.String},
		{Name: "c_nationkey", Type: minidb.Int64},
		{Name: "c_phone", Type: minidb.String},
		{Name: "c_acctbal", Type: minidb.Float64},
		{Name: "c_mktsegment", Type: minidb.String},
		{Name: "c_comment", Type: minidb.String},
	}
}

// OrdersSchema is the TPC-H ORDERS relation.
func OrdersSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "o_orderkey", Type: minidb.Int64},
		{Name: "o_custkey", Type: minidb.Int64},
		{Name: "o_orderstatus", Type: minidb.String},
		{Name: "o_totalprice", Type: minidb.Float64},
		{Name: "o_orderdate", Type: minidb.Date},
		{Name: "o_orderpriority", Type: minidb.String},
		{Name: "o_clerk", Type: minidb.String},
		{Name: "o_shippriority", Type: minidb.Int64},
		{Name: "o_comment", Type: minidb.String},
	}
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	statuses   = []string{"O", "F", "P"}
	words      = []string{
		"blithely", "carefully", "express", "furiously", "ironic", "pending",
		"regular", "silent", "slyly", "special", "final", "bold", "quick",
		"deposits", "foxes", "packages", "requests", "accounts", "theodolites",
		"instructions", "platelets", "dependencies", "pinto", "beans", "asymptotes",
		"sleep", "nag", "haggle", "wake", "cajole", "integrate", "detect", "boost",
	}
	streets = []string{"Oak", "Maple", "Cedar", "Elm", "Birch", "Walnut", "Spruce", "Ash"}
)

// appendComment appends a TPC-H-flavoured filler sentence of n words.
func appendComment(b []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, words[rng.Intn(len(words))]...)
	}
	return b
}

// appendPadded appends v in decimal, zero-padded to width digits (the
// %0*d of fmt, for v >= 0).
func appendPadded(b []byte, v int64, width int) []byte {
	for d, p := 1, int64(10); d < width; d, p = d+1, p*10 {
		if v < p {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, v, 10)
}

// appendPhone appends a TPC-H-style phone number for a nation key.
func appendPhone(b []byte, rng *rand.Rand, nation int64) []byte {
	b = appendPadded(b, 10+nation, 2)
	b = append(b, '-')
	b = appendPadded(b, int64(100+rng.Intn(900)), 3)
	b = append(b, '-')
	b = appendPadded(b, int64(100+rng.Intn(900)), 3)
	b = append(b, '-')
	return appendPadded(b, int64(1000+rng.Intn(9000)), 4)
}

// CustomerCount returns the CUSTOMER cardinality at the given scale.
func CustomerCount(sf float64) int { return int(float64(CustomersPerSF) * sf) }

// OrdersCount returns the ORDERS cardinality at the given scale.
func OrdersCount(sf float64) int { return int(float64(OrdersPerSF) * sf) }

// GenCustomer creates and fills the "customer" table in the catalog at the
// given scale factor.
func GenCustomer(cat *minidb.Catalog, sf float64) (*minidb.Table, error) {
	n := CustomerCount(sf)
	if n <= 0 {
		return nil, fmt.Errorf("tpch: scale factor %g yields no customers", sf)
	}
	t, err := cat.CreateTable("customer", CustomerSchema())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	b := minidb.NewBatch(t, n)
	for i := 1; i <= n; i++ {
		// The draw order is part of the dataset: that of one fmt.Sprintf
		// per string cell, arguments left to right.
		r := b.Row()
		nation := int64(rng.Intn(25))
		r[0] = minidb.NewInt(int64(i))
		b.SetText(1, appendPadded(append(b.Text(), "Customer#"...), int64(i), 9))
		text := strconv.AppendInt(b.Text(), int64(1+rng.Intn(9999)), 10)
		text = append(text, ' ')
		text = append(text, streets[rng.Intn(len(streets))]...)
		text = append(text, " St Apt "...)
		b.SetText(2, strconv.AppendInt(text, int64(1+rng.Intn(99)), 10))
		r[3] = minidb.NewInt(nation)
		b.SetText(4, appendPhone(b.Text(), rng, nation))
		r[5] = minidb.NewFloat(float64(rng.Intn(1100000)-100000) / 100) // -999.99 .. 9999.99
		r[6] = minidb.NewString(segments[rng.Intn(len(segments))])
		b.SetText(7, appendComment(b.Text(), rng, 8+rng.Intn(10)))
		if err := b.EndRow(); err != nil {
			return nil, err
		}
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// GenOrders creates and fills the "orders" table in the catalog at the
// given scale factor.
func GenOrders(cat *minidb.Catalog, sf float64) (*minidb.Table, error) {
	n := OrdersCount(sf)
	if n <= 0 {
		return nil, fmt.Errorf("tpch: scale factor %g yields no orders", sf)
	}
	customers := CustomerCount(sf)
	if customers < 1 {
		customers = 1
	}
	t, err := cat.CreateTable("orders", OrdersSchema())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(4242))
	const (
		epochStart = 8035 // 1992-01-01 in days since 1970-01-01
		dateRange  = 2405 // through 1998-08-02, as in TPC-H
	)
	b := minidb.NewBatch(t, n)
	for i := 1; i <= n; i++ {
		r := b.Row()
		r[0] = minidb.NewInt(int64(i))
		r[1] = minidb.NewInt(int64(1 + rng.Intn(customers)))
		r[2] = minidb.NewString(statuses[rng.Intn(len(statuses))])
		r[3] = minidb.NewFloat(float64(85000+rng.Intn(50000000)) / 100)
		r[4] = minidb.NewDate(int64(epochStart + rng.Intn(dateRange)))
		r[5] = minidb.NewString(priorities[rng.Intn(len(priorities))])
		b.SetText(6, appendPadded(append(b.Text(), "Clerk#"...), int64(1+rng.Intn(1000)), 9))
		r[7] = minidb.NewInt(0)
		b.SetText(8, appendComment(b.Text(), rng, 6+rng.Intn(12)))
		if err := b.EndRow(); err != nil {
			return nil, err
		}
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// Load generates both relations at the given scale into a fresh catalog,
// the standard setup of the examples and the live service. The two are
// generated at once, each from its own seeded source, so the rows do not
// depend on how the goroutines are scheduled.
func Load(sf float64) (*minidb.Catalog, error) {
	cat := minidb.NewCatalog()
	var ordersErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, ordersErr = GenOrders(cat, sf)
	}()
	_, customerErr := GenCustomer(cat, sf)
	<-done
	if customerErr != nil {
		return nil, customerErr
	}
	if ordersErr != nil {
		return nil, ordersErr
	}
	return cat, nil
}
