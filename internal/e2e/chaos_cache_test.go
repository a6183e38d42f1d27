package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// warmBackendCache runs one full customer scan at the given block size
// directly against a backend, filling its encoded-block cache with every
// block of the plan the measured gateway session will pull. Keys carry
// the absolute cursor (not the create offset), so a gateway failover
// re-open at cursor N lands on these same entries.
func warmBackendCache(t *testing.T, baseURL string, size int) {
	t.Helper()
	hc := &http.Client{Timeout: 2 * time.Minute}
	resp, err := hc.Post(baseURL+"/sessions", "application/json", strings.NewReader(`{"table":"customer"}`))
	if err != nil {
		t.Fatalf("warm %s: open session: %v", baseURL, err)
	}
	var cr struct {
		Session string `json:"session"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || cr.Session == "" {
		t.Fatalf("warm %s: decode create: %v", baseURL, err)
	}
	for seq := 1; ; seq++ {
		resp, err := hc.Post(fmt.Sprintf("%s/sessions/%s/next?size=%d&seq=%d", baseURL, cr.Session, size, seq), "", nil)
		if err != nil {
			t.Fatalf("warm %s: pull seq %d: %v", baseURL, seq, err)
		}
		io.Copy(io.Discard, resp.Body)
		done := resp.Header.Get("X-Block-Done") == "true"
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm %s: pull seq %d: %s", baseURL, seq, resp.Status)
		}
		if done {
			return
		}
	}
}

// TestChaosGateCache is the cache-enabled arm of the gateway chaos gate:
// three replicated, cache-enabled backends behind one wsgate, every
// backend's encoded-block cache warmed hot for the measured plan, and a
// SIGKILL of the measured session's primary mid-transfer. The transfer
// must still deliver the exact relation with every key exactly once —
// cache entries keyed by absolute cursor and dataset version can neither
// duplicate, drop, nor serve stale tuples across the failover re-open —
// and the successor must demonstrably serve the post-kill tail from its
// warm cache, visible through the gateway's per-backend /stats cache
// enrichment.
func TestChaosGateCache(t *testing.T) {
	wsblockd, wsgate, _ := buildGateBinaries(t)

	const blockSize = 100
	backs := make([]*daemon, 3)
	urls := make([]string, len(backs))
	for i := range backs {
		backs[i] = startDaemon(t, wsblockd, "-conf", "conf1.1", "-timescale", "0.2",
			"-replicate", "8192", "-cache-mem-bytes", fmt.Sprint(64<<20))
		urls[i] = backs[i].baseURL
	}
	gate := startGateway(t, wsgate,
		"-backends", strings.Join(urls, ","),
		"-pull-interval", "5ms",
		"-breaker-failures", "2",
		"-breaker-cooldown", "1h")

	// Make the whole fleet hot: whichever backend the session lands on
	// (and whichever survivor it fails over to) already holds every block
	// of this plan at this size.
	for _, d := range backs {
		warmBackendCache(t, d.baseURL, blockSize)
	}
	for i, d := range backs {
		code, body := httpGet(t, d.baseURL+"/stats")
		if code != http.StatusOK || !strings.Contains(body, `"cache"`) {
			t.Fatalf("backend %d /stats missing cache after warmup (code %d): %s", i, code, body)
		}
	}

	hc := &http.Client{Timeout: 2 * time.Minute}
	c, err := client.New(gate.baseURL, wire.XML{}, hc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, client.Query{Table: "customer"})
	if err != nil {
		t.Fatal(err)
	}

	wantTuples := tpch.CustomerCount(scaleFactor)
	ids := make(map[int64]int, wantTuples)
	total := 0
	pull := func() {
		t.Helper()
		blk, err := sess.Next(ctx, blockSize)
		if err != nil {
			t.Fatalf("pull after %d tuples: %v", total, err)
		}
		for _, r := range blk.Rows() {
			ids[r[0].I]++
			total++
		}
	}

	for i := 0; i < 3; i++ {
		pull()
	}
	var primary string
	for _, s := range gateStats(t, gate).Sessions {
		if s.ID == sess.ID() {
			primary = s.Backend
		}
	}
	if primary == "" {
		t.Fatalf("session %s not in gateway /stats", sess.ID())
	}
	var victim *daemon
	for _, d := range backs {
		if d.baseURL == primary {
			victim = d
		}
	}
	if victim == nil {
		t.Fatalf("primary %q is not one of the started backends %v", primary, urls)
	}

	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	_ = victim.cmd.Wait()

	for !sess.Done() {
		pull()
	}

	// Exactly-once across the kill with every cache hot: the full
	// relation, every key once — a stale or misaligned cache entry on
	// the successor would show up here as a duplicated, missing, or
	// phantom key.
	if total != wantTuples {
		t.Fatalf("transfer across the kill delivered %d tuples, want %d", total, wantTuples)
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("key %d delivered %d times", id, n)
		}
	}
	if sess.GatewayFailovers() < 1 {
		t.Fatal("session never acknowledged a gateway failover")
	}

	// The successor served the post-kill tail from its warm cache: find
	// the session's new backend before closing and check its enriched
	// /stats entry moved past the warmup fills.
	st := gateStats(t, gate)
	var successor string
	for _, s := range st.Sessions {
		if s.ID == sess.ID() {
			successor = s.Backend
		}
	}
	if successor == "" || successor == primary {
		t.Fatalf("session did not move off the dead primary (now on %q)", successor)
	}
	hitsOn := func(backend string) int64 {
		for _, b := range st.Backends {
			if b.URL == backend && b.Cache != nil {
				return b.Cache.MemHits
			}
		}
		return -1
	}
	if hits := hitsOn(successor); hits < 1 {
		t.Fatalf("successor %s served %d cache hits, want >= 1 (warm failover must hit)", successor, hits)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, d := range backs {
		if d != victim {
			d.stop(t)
		}
	}
}
