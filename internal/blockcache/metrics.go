package blockcache

import "wsopt/internal/metrics"

// registerMetrics exposes the cache in reg: each counter series is a
// scrape-time view of the atomic Stats() reads too, each gauge a view of
// the occupancy. All series exist (at 0) before the first pull.
func (c *Cache) registerMetrics(reg *metrics.Registry) {
	mem := metrics.L("tier", "mem")
	reg.CounterFunc("wsopt_cache_hits_total", "Encoded-block cache hits, by tier.", c.memHits.Load, mem)
	reg.CounterFunc("wsopt_cache_misses_total", "Encoded-block cache misses (a scan + encode ran).", c.misses.Load)
	reg.CounterFunc("wsopt_cache_evictions_total", "Entries evicted past a tier's byte budget, by tier.", c.memEvict.Load, mem)
	reg.CounterFunc("wsopt_cache_singleflight_shared_total", "Pulls served by another session's concurrent fill of the same key.", c.shared.Load)
	reg.GaugeFunc("wsopt_cache_bytes", "Live cached payload bytes, by tier.", func() float64 {
		return float64(c.Stats().MemBytes)
	}, mem)
	reg.GaugeFunc("wsopt_cache_entries", "Live cached entries, by tier.", func() float64 {
		return float64(c.Stats().MemEntries)
	}, mem)
}
