package metrics

import "testing"

// TestRegisterRuntimeSeries pins the runtime gauge set — in particular
// the heap/GC series the allocation-discipline work watches (DESIGN.md
// §14) — and their basic invariants at scrape time.
func TestRegisterRuntimeSeries(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	snap := r.Snapshot()

	for _, name := range []string{
		"wsopt_process_uptime_seconds",
		"wsopt_go_goroutines",
		"wsopt_go_gomaxprocs",
		"wsopt_go_heap_alloc_bytes",
		"wsopt_go_total_alloc_bytes",
		"wsopt_go_gc_cycles",
		"wsopt_go_gc_pauses_total",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("runtime gauge %s not registered", name)
		}
	}

	heap := snap.Gauge("wsopt_go_heap_alloc_bytes")
	total := snap.Gauge("wsopt_go_total_alloc_bytes")
	if heap <= 0 {
		t.Errorf("heap_alloc = %g, want > 0", heap)
	}
	// Cumulative allocation can never be below what is currently live.
	if total < heap {
		t.Errorf("total_alloc %g < heap_alloc %g", total, heap)
	}
	if pauses := snap.Gauge("wsopt_go_gc_pauses_total"); pauses < 0 {
		t.Errorf("gc_pauses_total = %g, want >= 0", pauses)
	}

	// The cached MemStats must refresh: force allocation churn and check
	// total_alloc is monotone non-decreasing across a later scrape.
	sink := make([][]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	if later := r.Snapshot().Gauge("wsopt_go_total_alloc_bytes"); later < total {
		t.Errorf("total_alloc went backwards: %g -> %g", total, later)
	}
}
