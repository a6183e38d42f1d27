package metrics

// Snapshots freeze a registry's state into plain values so tests can
// assert exact totals without scraping and re-parsing the text format.

// Snapshot is a point-in-time copy of every series in a registry, keyed
// by the full series identity (`name` or `name{k="v",...}`).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// HistogramSnapshot is a frozen histogram.
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations.
	Count int64
	Sum   float64
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf overflow bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []int64
}

// Sub returns the per-interval histogram between an earlier snapshot of
// the same series and this one: bucket counts, count, and sum are
// differenced. Quantiles of the result describe only the observations
// that arrived in between — the windowed view a feedback controller needs
// from a cumulative histogram. Mismatched bucket layouts (or a counter
// reset) yield the current snapshot unchanged, which self-heals on the
// next interval.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(h.Counts) || prev.Count > h.Count {
		return h
	}
	out := HistogramSnapshot{
		Bounds: h.Bounds,
		Count:  h.Count - prev.Count,
		Sum:    h.Sum - prev.Sum,
		Counts: make([]int64, len(h.Counts)),
	}
	for i := range h.Counts {
		d := h.Counts[i] - prev.Counts[i]
		if d < 0 {
			return h
		}
		out.Counts[i] = d
	}
	return out
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket, the usual Prometheus approximation.
// Observations in the +Inf bucket clamp to the highest finite bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, n := range h.Counts {
		cum += n
		if float64(cum) >= rank && n > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			within := float64(n) - (float64(cum) - rank)
			return lo + (hi-lo)*within/float64(n)
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot copies every series' current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cols := make([]*collector, 0, len(r.series))
	keys := make([]string, 0, len(r.series))
	for k, c := range r.series {
		keys = append(keys, k)
		cols = append(cols, c)
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for i, c := range cols {
		switch {
		case c.ctr != nil:
			s.Counters[keys[i]] = c.ctr.Value()
		case c.cfn != nil:
			s.Counters[keys[i]] = c.cfn()
		case c.gauge != nil:
			s.Gauges[keys[i]] = c.gauge.Value()
		case c.gfn != nil:
			s.Gauges[keys[i]] = c.gfn()
		case c.hist != nil:
			s.Histograms[keys[i]] = c.hist.snapshot()
		}
	}
	return s
}

// Counter returns the snapshotted value of the named counter series
// (0 when absent), accepting the same labels used at registration.
func (s Snapshot) Counter(name string, labels ...Label) int64 {
	return s.Counters[seriesKey(name, labels)]
}

// Gauge returns the snapshotted value of the named gauge series.
func (s Snapshot) Gauge(name string, labels ...Label) float64 {
	return s.Gauges[seriesKey(name, labels)]
}

// Histogram returns the snapshotted state of the named histogram series.
func (s Snapshot) Histogram(name string, labels ...Label) HistogramSnapshot {
	return s.Histograms[seriesKey(name, labels)]
}
