package gateway

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"wsopt/internal/blockcache"
	"wsopt/internal/metrics"
	"wsopt/internal/replica"
	"wsopt/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/surface.golden from what the tiers expose now")

// seriesOf lists every series of reg as "type name{labels}", the backend
// URL (a fresh port every run) spelled URL.
func seriesOf(reg *metrics.Registry, backendURL string) []string {
	snap := reg.Snapshot()
	var out []string
	add := func(typ, key string) {
		out = append(out, typ+" "+strings.ReplaceAll(key, backendURL, "URL"))
	}
	for k := range snap.Counters {
		add("counter", k)
	}
	for k := range snap.Gauges {
		add("gauge", k)
	}
	for k := range snap.Histograms {
		add("histogram", k)
	}
	sort.Strings(out)
	return out
}

// jsonKeys lists the key paths of a decoded JSON document, arrays as [].
func jsonKeys(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			into[prefix+k] = true
			jsonKeys(prefix+k+".", child, into)
		}
	case []any:
		for _, child := range v {
			jsonKeys(strings.TrimSuffix(prefix, ".")+"[].", child, into)
		}
	}
}

func statsKeys(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	jsonKeys("", doc, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOperationalSurfaceIsPinned holds the names operators and dashboards
// depend on — every /metrics series and every /stats JSON key of the
// service, its block cache and the gateway — against a golden file
// recorded before the tiers' counters became single atomics with two
// views. A name that moves is a breaking change, not a refactor: change it
// on purpose and re-record with `go test ./internal/gateway -run
// TestOperationalSurfaceIsPinned -update`.
func TestOperationalSurfaceIsPinned(t *testing.T) {
	sreg, greg := metrics.NewRegistry(), metrics.NewRegistry()
	cache, err := blockcache.New(blockcache.Config{MemBytes: 1 << 20, Metrics: sreg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Catalog: testCatalog(t, 40), Replica: replica.NewLog(64), Cache: cache, Metrics: sreg})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	t.Cleanup(backend.Close)
	_, ts := newTestGateway(t, []*testBackend{{ts: backend}}, func(c *Config) { c.Metrics = greg })
	// One open session that has pulled a block, so that sessions[] and the
	// backend's cache object have their keys.
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)
	resp := pull(t, ts.URL, id, 10, 1)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var doc strings.Builder
	section := func(title string, lines []string) {
		fmt.Fprintf(&doc, "== %s\n%s\n", title, strings.Join(lines, "\n"))
	}
	section("wsblockd /metrics (service, block cache, replication log)", seriesOf(sreg, backend.URL))
	section("wsblockd /stats", statsKeys(t, backend.URL))
	section("wsgate /metrics", seriesOf(greg, backend.URL))
	section("wsgate /stats", statsKeys(t, ts.URL))

	const golden = "testdata/surface.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.String(); got != string(want) {
		t.Errorf("the operational surface moved; now:\n%s\nwant (%s):\n%s", got, golden, want)
	}
}
