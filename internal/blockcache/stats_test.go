package blockcache

import (
	"strings"
	"testing"
	"time"

	"wsopt/internal/metrics"
)

// statsSeries lists every counter of Stats beside the /metrics series
// that must be a view of the same atomic.
func statsSeries(st Stats) map[string]int64 {
	return map[string]int64{
		`wsopt_cache_hits_total{tier="mem"}`:      st.MemHits,
		"wsopt_cache_misses_total":                st.Misses,
		`wsopt_cache_evictions_total{tier="mem"}`: st.MemEvictions,
		"wsopt_cache_singleflight_shared_total":   st.SingleflightShared,
	}
}

func assertViewsAgree(t *testing.T, at string, c *Cache, reg *metrics.Registry) Stats {
	t.Helper()
	st, snap := c.Stats(), reg.Snapshot()
	table := statsSeries(st)
	for series, want := range table {
		got, ok := snap.Counters[series]
		if !ok || got != want {
			t.Errorf("%s: /metrics %s = %d (registered: %v), Stats() = %d", at, series, got, ok, want)
		}
	}
	for series := range snap.Counters {
		if _, ok := table[series]; !ok && strings.HasPrefix(series, "wsopt_cache_") {
			t.Errorf("%s: counter series %s has no Stats() field in the table", at, series)
		}
	}
	for gauge, want := range map[string]int64{
		`wsopt_cache_bytes{tier="mem"}`:   st.MemBytes,
		`wsopt_cache_entries{tier="mem"}`: st.MemEntries,
	} {
		if got := snap.Gauges[gauge]; int64(got) != want {
			t.Errorf("%s: /metrics %s = %g, Stats() = %d", at, gauge, got, want)
		}
	}
	return st
}

// TestStatsAndMetricsAreTwoViewsOfOneCounter walks a cache through
// every counted event and compares Stats() with the registry after each
// step. Each step also says what it should have moved, so that 0 == 0
// proves nothing.
func TestStatsAndMetricsAreTwoViewsOfOneCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	// 40-byte entries: one fits.
	c, err := New(Config{MemBytes: 50, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(k byte) {
		ent, _, err := c.GetOrFill(testKey(k), func() (*Entry, error) { return NewEntry(payload(40, k), 1, false), nil })
		if err != nil {
			t.Fatal(err)
		}
		ent.Release()
	}
	steps := []struct {
		name string
		act  func()
		want func(st Stats) bool
	}{
		{"before traffic", func() {}, func(st Stats) bool { return st == Stats{} }},
		{"miss and fill", func() { fill(1) }, func(st Stats) bool { return st.Misses == 1 && st.MemEntries == 1 }},
		{"memory hit", func() { c.Get(testKey(1)).Release() }, func(st Stats) bool { return st.MemHits == 1 }},
		{"plain miss", func() {
			if c.Get(testKey(9)) != nil {
				t.Fatal("hit on a key never filled")
			}
		}, func(st Stats) bool { return st.Misses == 2 }},
		{"memory eviction", func() { fill(2) },
			func(st Stats) bool { return st.MemEvictions == 1 && st.MemEntries == 1 && st.Misses == 3 }},
		{"evicted key misses", func() {
			if c.Get(testKey(1)) != nil {
				t.Fatal("hit on an evicted key")
			}
		}, func(st Stats) bool { return st.Misses == 4 }},
		{"single flight shared", func() {
			started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				ent, _, _ := c.GetOrFill(testKey(5), func() (*Entry, error) {
					close(started)
					<-release
					return NewEntry(payload(40, 5), 1, false), nil
				})
				ent.Release()
			}()
			<-started
			go func() {
				for c.flightWaiters(testKey(5)) == 0 {
					time.Sleep(time.Millisecond)
				}
				close(release)
			}()
			ent, shared, err := c.GetOrFill(testKey(5), func() (*Entry, error) {
				t.Error("the waiter ran its own fill")
				return NewEntry(nil, 0, false), nil
			})
			if err != nil || !shared {
				t.Fatalf("waiter: shared %v, err %v", shared, err)
			}
			ent.Release()
			<-done
		}, func(st Stats) bool { return st.SingleflightShared == 1 }},
	}
	for _, step := range steps {
		step.act()
		if st := assertViewsAgree(t, "after "+step.name, c, reg); !step.want(st) {
			t.Fatalf("after %s: unexpected Stats %+v", step.name, st)
		}
	}
}

// flightWaiters reports how many callers are queued on key's in-flight fill.
func (c *Cache) flightWaiters(key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[key]; f != nil {
		return f.waiters
	}
	return 0
}
