// Package metrics is the repo's observability core: a dependency-free
// registry of atomic counters, gauges, and fixed-bucket histograms with
// Prometheus text-format exposition and cheap snapshots for tests.
//
// The paper's controllers are judged entirely by runtime measurements —
// per-block response times, phase switches, convergence — so the same
// signals the experiments log to CSV are exported here as live series:
// the service records blocks served, replays, and injected faults; the
// client records per-block RTTs, retries, and bytes moved; the core
// controllers record phase transitions and supervisor failovers.
//
// Collectors are safe for concurrent use and registration is idempotent:
// asking twice for the same name+labels returns the same collector, so
// components can register eagerly without coordination.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair qualifying a series.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds, with an
// implicit +Inf overflow bucket) and tracks count and sum, matching the
// Prometheus histogram model.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds (le semantics)
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value. NaN is dropped (a broken measurement must
// not poison the sum).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot copies the histogram state. Buckets are read individually, so
// under concurrent writes the copy is only approximately consistent —
// exact once writers quiesce. Periodic consumers (the admission
// regulator windows two snapshots into a per-interval histogram) tolerate
// the skew: an observation that straddles the snapshot lands in the next
// window instead of being lost.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Default bucket layouts for the two quantities the repo measures.
var (
	// DefLatencyBuckets covers block round-trip times in milliseconds,
	// from sub-millisecond LAN pulls to multi-second loaded-WAN blocks.
	DefLatencyBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	// DefSizeBuckets covers block sizes in tuples across the paper's
	// admissible range [100, 20000] with headroom on both sides.
	DefSizeBuckets = []float64{16, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
	// DefServeBuckets resolves serve-time feedback for the SLO regulator:
	// a windowed quantile can only be read to bucket resolution, so the
	// 5-50ms regime typical SLOs live in gets ~2.5-5ms buckets instead of
	// DefLatencyBuckets' 10→25→50 jumps.
	DefServeBuckets = []float64{1, 2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 25, 30, 40, 50, 75, 100, 150, 250, 500, 1000, 2500, 5000, 10000, 30000}
)

// collector is one registered series.
type collector struct {
	name   string
	labels []Label
	ctr    *Counter
	cfn    func() int64
	gauge  *Gauge
	gfn    func() float64
	hist   *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	cols []*collector
}

// Registry holds named collectors and renders them in Prometheus text
// format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string              // family registration order
	series   map[string]*collector // seriesKey -> collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		series:   make(map[string]*collector),
	}
}

// seriesKey renders name{k="v",...}, the unique series identity (labels
// in the order given — callers use a fixed order per name).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register finds or creates the series; mk builds a fresh collector.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() *collector) *collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(name, labels)
	if c, ok := r.series[key]; ok {
		return c
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	c := mk()
	c.name, c.labels = name, labels
	f.cols = append(f.cols, c)
	r.series[key] = c
	return c
}

// Counter finds or creates a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.register(name, help, "counter", labels, func() *collector {
		return &collector{ctr: &Counter{}}
	})
	if c.ctr == nil {
		panic(fmt.Sprintf("metrics: %s is a counter func, not an incrementable counter", name))
	}
	return c.ctr
}

// CounterFunc registers a counter whose value is read at scrape time from
// an atomic its owner keeps: the owner counts each event once, and its
// own snapshot (a tier's Stats()) and this series are two views of that
// one number. fn must be safe to call from any goroutine. As with
// GaugeFunc the first registration of a series wins: two owners cannot
// share one.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, "counter", labels, func() *collector {
		return &collector{cfn: fn}
	})
}

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.register(name, help, "gauge", labels, func() *collector {
		return &collector{gauge: &Gauge{}}
	})
	if c.gauge == nil {
		panic(fmt.Sprintf("metrics: %s is a gauge func, not a settable gauge", name))
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time
// (e.g. live session counts, goroutines). fn must be safe to call from
// any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func() *collector {
		return &collector{gfn: fn}
	})
}

// Histogram finds or creates a histogram series over the given upper
// bounds (which must be sorted ascending; an implicit +Inf bucket is
// appended). Passing nil uses DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: %s histogram bounds not sorted: %v", name, bounds))
	}
	return r.register(name, help, "histogram", labels, func() *collector {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		return &collector{hist: &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}}
	}).hist
}

// WritePrometheus renders every series in Prometheus text exposition
// format (version 0.0.4), families sorted by name, series in
// registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, c := range f.cols {
			if err := writeSeries(w, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, c *collector) error {
	switch {
	case c.ctr != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(c.name, c.labels), c.ctr.Value())
		return err
	case c.cfn != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(c.name, c.labels), c.cfn())
		return err
	case c.gauge != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesKey(c.name, c.labels), formatFloat(c.gauge.Value()))
		return err
	case c.gfn != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesKey(c.name, c.labels), formatFloat(c.gfn()))
		return err
	case c.hist != nil:
		s := c.hist.snapshot()
		cum := int64(0)
		for i, n := range s.Counts {
			cum += n
			le := "+Inf"
			if i < len(s.Bounds) {
				le = formatFloat(s.Bounds[i])
			}
			labels := append(append([]Label{}, c.labels...), L("le", le))
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesKey(c.name+"_bucket", labels), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesKey(c.name+"_sum", c.labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesKey(c.name+"_count", c.labels), s.Count)
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// Handler returns an http.Handler serving the text exposition, for
// mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
