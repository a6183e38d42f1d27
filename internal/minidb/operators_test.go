package minidb

import "testing"

func scanOf(t *testing.T, rows []Row, schema Schema) Iterator {
	t.Helper()
	tbl, err := NewTable("tmp", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tbl.Scan()
}

func salesSchema() Schema {
	return Schema{
		{Name: "region", Type: String},
		{Name: "amount", Type: Float64},
		{Name: "units", Type: Int64},
	}
}

func salesRows() []Row {
	return []Row{
		{NewString("east"), NewFloat(10), NewInt(1)},
		{NewString("west"), NewFloat(30), NewInt(3)},
		{NewString("east"), NewFloat(20), NewInt(2)},
		{NewString("west"), NewFloat(40), NewInt(4)},
		{NewString("east"), Null(Float64), NewInt(5)},
	}
}

// TestOperatorsCompose runs the service's one query shape through the
// operators it is built from:
// SELECT DISTINCT region FROM sales WHERE amount > 15 LIMIT 1.
func TestOperatorsCompose(t *testing.T) {
	pred, err := ParseExpr("amount > 15")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Project(Filter(scanOf(t, salesRows(), salesSchema()), pred), []string{"region"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(Limit(Distinct(proj), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].S != "west" {
		t.Fatalf("composed pipeline = %v, want [west]", rows)
	}
}
