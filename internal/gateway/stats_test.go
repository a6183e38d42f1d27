package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/service"
)

// statsSeries lists every counter of Stats beside the /metrics series
// that must be a view of the same atomic.
func statsSeries(st Stats) map[string]int64 {
	return map[string]int64{
		"wsopt_gateway_sessions_opened_total":            st.SessionsOpened,
		"wsopt_gateway_sessions_shed_total":              st.SessionsShed,
		"wsopt_gateway_sessions_expired_total":           st.SessionsExpired,
		"wsopt_gateway_blocks_proxied_total":             st.BlocksProxied,
		"wsopt_gateway_tuples_proxied_total":             st.TuplesProxied,
		"wsopt_gateway_failovers_total":                  st.Failovers,
		"wsopt_gateway_standby_replays_total":            st.StandbyReplays,
		"wsopt_gateway_fallback_replays_total":           st.FallbackReplays,
		`wsopt_gateway_read_ahead_total{outcome="hit"}`:  st.ReadAheadHits,
		`wsopt_gateway_read_ahead_total{outcome="miss"}`: st.ReadAheadMisses,
	}
}

func assertViewsAgree(t *testing.T, at string, st Stats, snap metrics.Snapshot) {
	t.Helper()
	table := statsSeries(st)
	for series, want := range table {
		got, ok := snap.Counters[series]
		if !ok || got != want {
			t.Errorf("%s: /metrics %s = %d (registered: %v), Stats() = %d", at, series, got, ok, want)
		}
	}
	for series := range snap.Counters {
		if _, ok := table[series]; !ok && strings.HasPrefix(series, "wsopt_gateway_") {
			t.Errorf("%s: counter series %s has no Stats() field in the table", at, series)
		}
	}
}

// samplingWriter scrapes the registry from inside Write — the instant the
// client could hold the block — and can fail the write. (Stats() cannot be
// sampled there: it visits every session under its lock, which the pull in
// progress holds.)
type samplingWriter struct {
	*httptest.ResponseRecorder
	reg    *metrics.Registry
	seen   metrics.Snapshot
	failed error
}

func (w *samplingWriter) Write(p []byte) (int, error) {
	w.seen = w.reg.Snapshot()
	if w.failed != nil {
		return 0, w.failed
	}
	return w.ResponseRecorder.Write(p)
}

// TestStatsAndMetricsAreTwoViewsOfOneCounter walks a gateway through every
// counted event and compares Stats() with the registry after each step,
// a failed write included; inside a block write it is the scrape that must
// already show the block. Each step also says what it
// should have moved, so that 0 == 0 proves nothing.
func TestStatsAndMetricsAreTwoViewsOfOneCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	fleet := newFleet(t, 2, 60, true)
	gw, ts := newTestGateway(t, fleet, func(c *Config) { c.Metrics, c.MaxSessions = reg, 2 })
	do := func(resp *http.Response) service.BlockMeta {
		t.Helper()
		meta, _ := readFrame(t, resp)
		return meta
	}
	// direct serves one pull into a samplingWriter and returns the blocks
	// and tuples the registry showed inside its write.
	direct := func(path string, failed error) (blocks, tuples int64) {
		w := &samplingWriter{ResponseRecorder: httptest.NewRecorder(), reg: reg, failed: failed}
		gw.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		return w.seen.Counter("wsopt_gateway_blocks_proxied_total"), w.seen.Counter("wsopt_gateway_tuples_proxied_total")
	}
	var a, primary string
	steps := []struct {
		name string
		act  func()
		want func(st Stats) bool
	}{
		{"before traffic", func() {}, func(st Stats) bool { return st.SessionsOpened+st.BlocksProxied+st.Failovers == 0 }},
		{"create", func() { a, _ = openSession(t, ts.URL, `{"table":"items"}`) },
			func(st Stats) bool { return st.SessionsOpened == 1 }},
		{"block", func() { primary = backendURL(gw, do(pull(t, ts.URL, a, 25, 1))) },
			func(st Stats) bool { return st.BlocksProxied == 1 && st.TuplesProxied == 25 }},
		{"block counted inside its write", func() {
			if blocks, tuples := direct(fmt.Sprintf("/sessions/%s/next?size=25&seq=2", a), nil); blocks != 2 || tuples != 50 {
				t.Errorf("inside the write: %d blocks / %d tuples proxied, want 2 / 50", blocks, tuples)
			}
		}, func(st Stats) bool { return st.BlocksProxied == 2 && st.TuplesProxied == 50 }},
		{"failed write taken back", func() {
			if blocks, tuples := direct(fmt.Sprintf("/sessions/%s/next?size=25&seq=2", a), errors.New("peer gone")); blocks != 3 || tuples != 75 {
				t.Errorf("inside the failing write: %d blocks / %d tuples proxied, want 3 / 75", blocks, tuples)
			}
		}, func(st Stats) bool { return st.BlocksProxied == 2 && st.TuplesProxied == 50 }},
		{"shed", func() {
			openSession(t, ts.URL, `{"table":"items"}`)
			resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("third session under MaxSessions 2: %v, %v", resp, err)
			}
			resp.Body.Close()
		}, func(st Stats) bool { return st.SessionsShed == 1 && st.SessionsOpened == 2 }},
		{"standby replay after the primary died", func() {
			waitFor(t, 2*time.Second, "replication to catch up", func() bool {
				for _, b := range gw.Stats().Backends {
					if b.URL == primary {
						return b.Applied >= 3 && b.LagRecords == 0
					}
				}
				return false
			})
			backendFor(t, fleet, primary).kill()
			do(pull(t, ts.URL, a, 25, 2))
		}, func(st Stats) bool { return st.StandbyReplays == 1 && st.Failovers == 1 && st.BlocksProxied == 3 }},
		{"expiry", func() { gw.ExpireIdle(time.Now().Add(time.Hour)) },
			func(st Stats) bool { return st.SessionsExpired == 2 }},
	}
	for _, step := range steps {
		step.act()
		st := gw.Stats()
		assertViewsAgree(t, "after "+step.name, st, reg.Snapshot())
		if !step.want(st) {
			t.Fatalf("after %s: unexpected Stats %+v", step.name, st)
		}
	}

	// The fallback replay needs a fleet that ships no replication feed.
	reg = metrics.NewRegistry()
	fleet = newFleet(t, 2, 60, false)
	gw, ts = newTestGateway(t, fleet, func(c *Config) { c.Metrics = reg })
	a, _ = openSession(t, ts.URL, `{"table":"items"}`)
	primary = backendURL(gw, do(pull(t, ts.URL, a, 25, 1)))
	backendFor(t, fleet, primary).kill()
	do(pull(t, ts.URL, a, 25, 1))
	st := gw.Stats()
	assertViewsAgree(t, "after a fallback replay", st, reg.Snapshot())
	if st.FallbackReplays != 1 || st.Failovers != 1 {
		t.Fatalf("after a fallback replay: %+v", st)
	}

	// A promising client on the surviving backend: its second block is
	// read ahead (a hit), its third asks for another size (a miss).
	b, _ := openSession(t, ts.URL, `{"table":"items"}`)
	for seq, size := range []int{10, 10, 5} {
		do(pullQuery(t, ts.URL, b, service.Query{Size: size, Seq: uint64(seq + 1), Hold: true}))
	}
	st = gw.Stats()
	assertViewsAgree(t, "after a read-ahead hit and miss", st, reg.Snapshot())
	if st.ReadAheadHits != 1 || st.ReadAheadMisses != 1 {
		t.Fatalf("after a read-ahead hit and miss: %+v", st)
	}
	gw.ExpireIdle(time.Now().Add(time.Hour))
}
