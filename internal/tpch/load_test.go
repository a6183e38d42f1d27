package tpch

import "testing"

// loadAllocBudget bounds Load(0.2)'s allocations: the catalog, two
// tables, and per batch of 10 000 rows a value slab and one string, with
// room to spare but none for an allocation per row (120 000 rows).
const loadAllocBudget = 1000

// TestLoadAllocGate fails when generation goes back to allocating per
// row or per cell.
func TestLoadAllocGate(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Load(0.2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Load(0.2): %.0f allocations", allocs)
	if allocs > loadAllocBudget {
		t.Fatalf("Load(0.2) made %.0f allocations, budget %d", allocs, loadAllocBudget)
	}
}

// BenchmarkLoad times the standard setup of the service and the
// benchmark: both relations at scale factor 0.2 (30 000 customers and
// 90 000 orders).
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load(0.2); err != nil {
			b.Fatal(err)
		}
	}
}
