package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wsopt_test_total", "a counter")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("wsopt_test_total", "a counter"); again != c {
		t.Fatal("re-registering the same counter returned a different instance")
	}

	g := r.Gauge("wsopt_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("wsopt_faults_total", "faults", L("kind", "dropped"))
	b := r.Counter("wsopt_faults_total", "faults", L("kind", "refused"))
	if a == b {
		t.Fatal("differently labeled series share a counter")
	}
	a.Add(3)
	b.Inc()
	snap := r.Snapshot()
	if got := snap.Counter("wsopt_faults_total", L("kind", "dropped")); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := snap.Counter("wsopt_faults_total", L("kind", "refused")); got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wsopt_test_ms", "latencies", []float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // third bucket
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if want := 90*5.0 + 10*500.0; h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	s := r.Snapshot().Histogram("wsopt_test_ms")
	if s.Counts[0] != 90 || s.Counts[1] != 0 || s.Counts[2] != 10 || s.Counts[3] != 0 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
	// p50 falls in [0,10), p95 in (100,1000].
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %g, want in (0,10]", q)
	}
	if q := s.Quantile(0.95); q <= 100 || q > 1000 {
		t.Fatalf("p95 = %g, want in (100,1000]", q)
	}
	// Overflow observations clamp to the top bound.
	h.Observe(5000)
	if q := r.Snapshot().Histogram("wsopt_test_ms").Quantile(1); q != 1000 {
		t.Fatalf("p100 with overflow = %g, want 1000", q)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wsopt_blocks_total", "blocks served").Add(7)
	r.Gauge("wsopt_sessions_live", "live sessions").Set(3)
	r.GaugeFunc("wsopt_uptime_seconds", "uptime", func() float64 { return 12.5 })
	r.Histogram("wsopt_rtt_ms", "rtt", []float64{10, 100}).Observe(42)
	r.Counter("wsopt_faults_total", "faults", L("kind", "dropped")).Inc()
	var served atomic.Int64 // a tier's own counter, exported as a view
	served.Add(5)
	r.CounterFunc("wsopt_served_total", "served", served.Load, L("tier", "mem"))

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE wsopt_blocks_total counter",
		"wsopt_blocks_total 7",
		"# TYPE wsopt_sessions_live gauge",
		"wsopt_sessions_live 3",
		"wsopt_uptime_seconds 12.5",
		"# TYPE wsopt_rtt_ms histogram",
		`wsopt_rtt_ms_bucket{le="10"} 0`,
		`wsopt_rtt_ms_bucket{le="100"} 1`,
		`wsopt_rtt_ms_bucket{le="+Inf"} 1`,
		"wsopt_rtt_ms_sum 42",
		"wsopt_rtt_ms_count 1",
		`wsopt_faults_total{kind="dropped"} 1`,
		"# TYPE wsopt_served_total counter",
		`wsopt_served_total{tier="mem"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// A counter func is read at scrape time, in the snapshot too, and can
	// go back down when its owner takes a failed event back.
	served.Add(-1)
	if got := r.Snapshot().Counter("wsopt_served_total", L("tier", "mem")); got != 4 {
		t.Errorf("snapshot of the counter func = %d, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Counter() handed out an incrementable twin of a counter func")
			}
		}()
		r.Counter("wsopt_served_total", "served", L("tier", "mem"))
	}()
	// Families must be sorted for deterministic scrapes.
	if strings.Index(body, "wsopt_blocks_total") > strings.Index(body, "wsopt_sessions_live") {
		t.Error("families not sorted by name")
	}
}

// TestConcurrentHammer drives counters, gauges, histograms, and
// registration from many goroutines and asserts exact totals — the
// registry's concurrency contract, meant to run under -race.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races with use: every goroutine re-registers
			// and must land on the same collectors.
			c := r.Counter("wsopt_hammer_total", "hammered")
			h := r.Histogram("wsopt_hammer_ms", "hammered", []float64{1, 10, 100})
			ga := r.Gauge("wsopt_hammer_gauge", "hammered")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				ga.Add(1)
			}
		}()
	}
	wg.Wait()

	snap := r.Snapshot()
	want := int64(goroutines * perG)
	if got := snap.Counter("wsopt_hammer_total"); got != want {
		t.Fatalf("counter = %d, want %d (lost increments)", got, want)
	}
	if got := snap.Gauge("wsopt_hammer_gauge"); got != float64(want) {
		t.Fatalf("gauge = %g, want %d (lost adds)", got, want)
	}
	h := snap.Histogram("wsopt_hammer_ms")
	if h.Count != want {
		t.Fatalf("histogram count = %d, want %d", h.Count, want)
	}
	var bucketSum int64
	for _, n := range h.Counts {
		bucketSum += n
	}
	if bucketSum != want {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, want)
	}
	// Sum is exact: every observation is an integer and the CAS loop
	// must not drop any.
	var wantSum float64
	for i := 0; i < perG; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= goroutines
	if h.Sum != wantSum {
		t.Fatalf("histogram sum = %g, want %g", h.Sum, wantSum)
	}
}

func TestQuantileEmptyAndClamped(t *testing.T) {
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	r := NewRegistry()
	h := r.Histogram("wsopt_q_ms", "q", []float64{10})
	h.Observe(5)
	s := r.Snapshot().Histogram("wsopt_q_ms")
	if q := s.Quantile(-1); q < 0 || q > 10 {
		t.Fatalf("clamped low quantile = %g", q)
	}
	if q := s.Quantile(2); q < 0 || q > 10 {
		t.Fatalf("clamped high quantile = %g", q)
	}
}
