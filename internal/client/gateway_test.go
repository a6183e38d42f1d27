package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsopt/internal/gateway"
	"wsopt/internal/minidb"
	replicapkg "wsopt/internal/replica"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// fleetBackend is one backend of startGatewayFleet: its test server, its
// service and the replication log it ships to the gateway.
type fleetBackend struct {
	*httptest.Server
	srv *service.Server
	log *replicapkg.Log
}

// startGatewayFleet brings up n replicated in-process backends behind a
// gateway and returns the gateway handle, its URL, and the backends by
// URL.
func startGatewayFleet(t *testing.T, n, rows int) (*gateway.Gateway, string, map[string]*fleetBackend) {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("item-%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}

	servers := make(map[string]*fleetBackend, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		rlog := replicapkg.NewLog(1024)
		srv, err := service.New(service.Config{Catalog: cat, Replica: rlog})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		servers[ts.URL] = &fleetBackend{ts, srv, rlog}
		urls[i] = ts.URL
	}
	gw, err := gateway.New(gateway.Config{
		Backends:     urls,
		Breaker:      resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
		PullInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	gw.Start(ctx)
	gwts := httptest.NewServer(gw.Handler())
	t.Cleanup(gwts.Close)
	return gw, gwts.URL, servers
}

// TestTransparentGatewayFailoverSurfacedOnce is the regression test for
// the gateway capability handshake: when the endpoint announces
// X-WSGate-Transparent-Failover, a backend death handled by the gateway
// must surface as EXACTLY one disturbance — not one per subsequent
// block, and not double-counted as a client-side session failover, even
// with a multi-endpoint pool where the client could fail over itself.
// Nor may a block that outlives its deadline behind the gateway move the
// session: it is retried in place.
func TestTransparentGatewayFailoverSurfacedOnce(t *testing.T) {
	const rows = 80
	gw, _, servers := startGatewayFleet(t, 2, rows)
	front := &gate{h: gw.Handler()}
	gwts := httptest.NewServer(front)
	t.Cleanup(gwts.Close)
	gwURL := gwts.URL

	// The other endpoints give the client's own failover machinery
	// somewhere to go — both backends, which serve the same relation, so
	// that a failover would succeed and show — and the capability must
	// keep it parked.
	urls := []string{gwURL}
	for u := range servers {
		urls = append(urls, u)
	}
	c, err := NewMulti(urls, wire.XML{}, &http.Client{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err := c.SetResilience(ResilienceConfig{
		Deadline: resilience.DeadlineConfig{Min: 150 * time.Millisecond, MinSamples: 1, Multiplier: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "items"})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Transparent() {
		t.Fatal("gateway session not marked transparent")
	}

	var disturbances []string
	sess.OnDisturbance = func(reason string) { disturbances = append(disturbances, reason) }

	var ids []int64
	blk, err := sess.Next(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range blk.Rows() {
		ids = append(ids, r[0].I)
	}

	// Stall the gateway for one pull, well past the deadline: with every
	// backend alive a client-side failover would find a home, but the
	// session is the gateway's to move.
	front.stallNext(1, 400*time.Millisecond)
	blk, err = sess.Next(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range blk.Rows() {
		ids = append(ids, r[0].I)
	}
	if blk.Attempts < 2 || blk.Failovers != 0 || sess.Failovers() != 0 || sess.Endpoint() != gwURL {
		t.Fatalf("stalled pull behind the gateway: %d attempts, %d failovers, endpoint %s; want a retry in place", blk.Attempts, sess.Failovers(), sess.Endpoint())
	}

	// SIGKILL-equivalent: sever the serving backend under the session.
	var primary string
	for _, s := range gw.Stats().Sessions {
		primary = s.Backend
	}
	ts, ok := servers[primary]
	if !ok {
		t.Fatalf("unknown primary %q", primary)
	}
	ts.CloseClientConnections()
	ts.Close()

	for !sess.Done() {
		blk, err := sess.Next(ctx, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range blk.Rows() {
			ids = append(ids, r[0].I)
		}
		if blk.GatewayFailovers != 1 {
			t.Fatalf("block reports %d gateway failovers, want 1", blk.GatewayFailovers)
		}
	}

	// Exactness: every tuple once, despite the mid-transfer death.
	if len(ids) != rows {
		t.Fatalf("got %d tuples, want %d", len(ids), rows)
	}
	seen := make(map[int64]bool, rows)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate tuple %d", id)
		}
		seen[id] = true
	}

	// The disturbance surfaced exactly once, as a gateway failover — the
	// client performed none of its own.
	if len(disturbances) != 1 {
		t.Fatalf("OnDisturbance fired %d times, want 1: %v", len(disturbances), disturbances)
	}
	if sess.Failovers() != 0 {
		t.Fatalf("client performed %d failovers of its own, want 0", sess.Failovers())
	}
	if sess.GatewayFailovers() != 1 {
		t.Fatalf("session acknowledges %d gateway failovers, want 1", sess.GatewayFailovers())
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDirectSessionNotTransparent checks the capability defaults off
// against a plain backend, leaving the client's own failover armed.
func TestDirectSessionNotTransparent(t *testing.T) {
	_, _, servers := startGatewayFleet(t, 1, 10)
	var direct string
	for u := range servers {
		direct = u
	}
	c, err := New(direct, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(context.Background(), Query{Table: "items"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	if sess.Transparent() {
		t.Fatal("direct backend session must not be transparent")
	}
}
