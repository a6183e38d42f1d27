package blockcache

import "wsopt/internal/metrics"

// registerMetrics exposes the cache in reg: each counter series is a
// scrape-time view of the atomic Stats() reads too, each gauge a view of
// the occupancy. All series exist (at 0) before the first pull.
func (c *Cache) registerMetrics(reg *metrics.Registry) {
	const hitsHelp, evictHelp = "Encoded-block cache hits, by tier.", "Entries evicted past a tier's byte budget, by tier."
	mem, disk := metrics.L("tier", "mem"), metrics.L("tier", "disk")
	reg.CounterFunc("wsopt_cache_hits_total", hitsHelp, c.memHits.Load, mem)
	reg.CounterFunc("wsopt_cache_hits_total", hitsHelp, c.diskHits.Load, disk)
	reg.CounterFunc("wsopt_cache_misses_total", "Encoded-block cache misses (a scan + encode ran).", c.misses.Load)
	reg.CounterFunc("wsopt_cache_evictions_total", evictHelp, c.memEvict.Load, mem)
	reg.CounterFunc("wsopt_cache_evictions_total", evictHelp, c.diskEvict.Load, disk)
	reg.CounterFunc("wsopt_cache_singleflight_shared_total", "Pulls served by another session's concurrent fill of the same key.", c.shared.Load)
	reg.GaugeFunc("wsopt_cache_bytes", "Live cached payload bytes, by tier.", func() float64 {
		return float64(c.Stats().MemBytes)
	}, metrics.L("tier", "mem"))
	reg.GaugeFunc("wsopt_cache_bytes", "Live cached payload bytes, by tier.", func() float64 {
		return float64(c.Stats().DiskBytes)
	}, metrics.L("tier", "disk"))
	reg.GaugeFunc("wsopt_cache_entries", "Live cached entries, by tier.", func() float64 {
		return float64(c.Stats().MemEntries)
	}, metrics.L("tier", "mem"))
	reg.GaugeFunc("wsopt_cache_entries", "Live cached entries, by tier.", func() float64 {
		return float64(c.Stats().DiskEntries)
	}, metrics.L("tier", "disk"))
}
