package client

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// The chaos tests drive full transfers through a service that randomly
// severs connections, truncates bodies, and refuses requests, and assert
// exactly-once delivery: the seq/replay protocol plus client retries must
// deliver the exact tuple set with zero duplicates and zero losses.

// chaosFaults injects a combined ~20% failure rate across the three
// fault kinds.
var chaosFaults = service.FaultConfig{
	DropProb:     0.08,
	TruncateProb: 0.06,
	Error503Prob: 0.06,
}

// chaosRetry retries aggressively with tiny backoffs to keep the tests
// fast; 25 attempts makes a full-run failure astronomically unlikely.
var chaosRetry = RetryPolicy{
	MaxAttempts: 25,
	BaseDelay:   time.Millisecond,
	MaxDelay:    5 * time.Millisecond,
}

// chaosStack builds a faulty service over `rows` unique tuples and a
// retrying client. When reg is non-nil both sides record into it, so a
// test can cross-check the metrics against ground truth.
func chaosStack(t *testing.T, rows int, codec wire.Codec, seed int64, reg *metrics.Registry) (*Client, *service.Server) {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{
		{Name: "k", Type: minidb.Int64},
		{Name: "v", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("v%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Catalog: cat,
		Codec:   codec,
		Faults:  chaosFaults,
		Seed:    seed,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(chaosRetry)
	c.SetMetrics(reg)
	return c, srv
}

// assertNoRetainedBlocks is the under-release detector: once every
// session is closed (and every replication log a daemon ships to), each
// daemon must have given back every reference to every block it held —
// through dropped connections, truncated responses and abandoned streams
// alike. It waits briefly, because a writer gives its reference back
// after the peer already holds the block. Each daemon is a Server or a
// Gateway.
func assertNoRetainedBlocks(t *testing.T, daemons ...interface{ RetainedBlocks() int64 }) {
	t.Helper()
	for _, d := range daemons {
		deadline := time.Now().Add(2 * time.Second)
		for d.RetainedBlocks() != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := d.RetainedBlocks(); n != 0 {
			t.Fatalf("%T holds %d block references after every session closed", d, n)
		}
	}
}

// assertExactSet fails unless every key 0..n-1 was seen exactly once.
func assertExactSet(t *testing.T, seen map[int64]int, n int) {
	t.Helper()
	dups, losses := 0, 0
	for k, c := range seen {
		if c > 1 {
			dups++
			t.Errorf("key %d delivered %d times", k, c)
		}
	}
	for i := 0; i < n; i++ {
		if seen[int64(i)] == 0 {
			losses++
			t.Errorf("key %d lost", i)
		}
	}
	if dups > 0 || losses > 0 {
		t.Fatalf("chaos run broke exactly-once delivery: %d duplicates, %d losses", dups, losses)
	}
}

func TestChaosPullExactlyOnce(t *testing.T) {
	const rows = 3000
	c, srv := chaosStack(t, rows, wire.XML{}, 42, nil)

	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int, rows)
	retries, replays := 0, 0
	for !sess.Done() {
		blk, err := sess.Next(context.Background(), 100)
		if err != nil {
			t.Fatalf("pull under chaos failed: %v", err)
		}
		for _, r := range blk.Rows() {
			seen[r[0].I]++
		}
		retries += blk.Attempts - 1
		if blk.Replayed {
			replays++
		}
	}
	assertExactSet(t, seen, rows)
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertNoRetainedBlocks(t, srv)

	st := srv.Stats()
	injected := st.FaultsInjected.Dropped + st.FaultsInjected.Truncated + st.FaultsInjected.Refused
	if injected == 0 {
		t.Fatal("chaos run injected no faults; the test proved nothing")
	}
	if retries == 0 {
		t.Fatal("client reported no retries despite injected faults")
	}
	if st.FaultsInjected.Dropped+st.FaultsInjected.Truncated > 0 && replays == 0 {
		t.Fatal("responses were lost in flight but no block was replayed")
	}
	t.Logf("chaos pull: %d faults injected (%d dropped, %d truncated, %d refused), %d retries, %d replays",
		injected, st.FaultsInjected.Dropped, st.FaultsInjected.Truncated, st.FaultsInjected.Refused, retries, replays)
}

func TestChaosRunAdaptiveExactlyOnce(t *testing.T) {
	const rows = 2000
	c, srv := chaosStack(t, rows, wire.Binary{}, 12, nil)

	cfg := core.Config{
		InitialSize: 50, Limits: core.Limits{Min: 10, Max: 400},
		B1: 30, B2: 25, AvgHorizon: 1, CriterionWindow: 5, CriterionThreshold: 1,
	}
	ctl, err := core.NewConstant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), Query{Table: "data"}, ctl, MetricPerTuple, true)
	if err != nil {
		t.Fatalf("adaptive run under chaos failed: %v", err)
	}
	if res.Tuples != rows {
		t.Fatalf("adaptive run delivered %d tuples, want %d", res.Tuples, rows)
	}
	if res.Retries == 0 {
		st := srv.Stats()
		t.Fatalf("run reported no retries despite injected faults (blocks=%d sizes=%v server-blocks=%d faults=%+v)",
			res.Blocks, res.Sizes, st.BlocksServed, st.FaultsInjected)
	}
}

func TestChaosRunPipelinedExactlyOnce(t *testing.T) {
	const rows = 2000
	c, _ := chaosStack(t, rows, wire.XML{}, 99, nil)

	seen := make(map[int64]int, rows)
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(80), MetricPerTuple, true,
		func(_ minidb.Schema, rows []minidb.Row) error {
			for _, r := range rows {
				seen[r[0].I]++
			}
			return nil
		})
	if err != nil {
		t.Fatalf("pipelined run under chaos failed: %v", err)
	}
	if res.Tuples != rows {
		t.Fatalf("pipelined run delivered %d tuples, want %d", res.Tuples, rows)
	}
	assertExactSet(t, seen, rows)
}

// TestChaosMetricsAccounting shares one registry between both sides of a
// chaotic transfer and cross-checks every counter against ground truth:
// the client's series must match what the pull loop observed exactly, and
// the service's series must match srv.Stats() exactly — faults counted
// equals faults injected, replays counted equals replays served.
func TestChaosMetricsAccounting(t *testing.T) {
	const rows = 3000
	reg := metrics.NewRegistry()
	c, srv := chaosStack(t, rows, wire.XML{}, 42, reg)

	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var blocks, tuples, retries, replays int
	var bytes int64
	for !sess.Done() {
		blk, err := sess.Next(context.Background(), 100)
		if err != nil {
			t.Fatalf("pull under chaos failed: %v", err)
		}
		blocks++
		tuples += len(blk.Rows())
		bytes += blk.Bytes
		retries += blk.Attempts - 1
		if blk.Replayed {
			replays++
		}
	}
	if tuples != rows {
		t.Fatalf("delivered %d tuples, want %d", tuples, rows)
	}

	snap := reg.Snapshot()
	st := srv.Stats()

	// Client side: every series equals what the loop saw.
	for name, want := range map[string]int64{
		"wsopt_client_blocks_total":  int64(blocks),
		"wsopt_client_tuples_total":  int64(rows),
		"wsopt_client_bytes_total":   bytes,
		"wsopt_client_retries_total": int64(retries),
		"wsopt_client_replays_total": int64(replays),
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if rtt := snap.Histogram("wsopt_client_block_rtt_ms"); rtt.Count != int64(blocks) {
		t.Errorf("client RTT histogram saw %d blocks, want %d", rtt.Count, blocks)
	}

	// Service side: metrics mirror Stats counter for counter. In
	// particular, faults counted == faults injected.
	for name, want := range map[string]int64{
		"wsopt_service_blocks_served_total":   st.BlocksServed,
		"wsopt_service_tuples_served_total":   st.TuplesServed,
		"wsopt_service_blocks_replayed_total": st.BlocksReplayed,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d (Stats disagrees with metrics)", name, got, want)
		}
	}
	faultWant := map[string]int64{
		"dropped":   st.FaultsInjected.Dropped,
		"truncated": st.FaultsInjected.Truncated,
		"refused":   st.FaultsInjected.Refused,
	}
	var faultTotal int64
	for kind, want := range faultWant {
		got := snap.Counter("wsopt_service_faults_injected_total", metrics.L("kind", kind))
		if got != want {
			t.Errorf("faults_injected{kind=%q} = %d, want %d", kind, got, want)
		}
		faultTotal += got
	}
	if faultTotal == 0 {
		t.Fatal("no faults recorded; the accounting test proved nothing")
	}
	if retries == 0 {
		t.Fatal("no retries observed despite injected faults")
	}

	// Replay accounting across the wire: the server can replay a block
	// more often than the client notices (a replayed response can itself
	// be faulted in flight), never less.
	if st.BlocksReplayed < int64(replays) {
		t.Errorf("server replayed %d blocks but client observed %d replays", st.BlocksReplayed, replays)
	}
	t.Logf("chaos metrics: %d blocks, %d retries, %d client replays / %d server replays, %d faults",
		blocks, retries, replays, st.BlocksReplayed, faultTotal)
}

func TestChaosPushExactlyOnce(t *testing.T) {
	const rows = 1500
	serverCat := minidb.NewCatalog()
	sink, err := serverCat.CreateTable("sink", pushSchema)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Catalog: serverCat,
		Faults:  chaosFaults,
		Seed:    1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(chaosRetry)

	tuples, retries := upload(t, c, "sink", pushRows(rows), 64)
	if tuples != rows {
		t.Fatalf("server confirmed %d tuples, want %d", tuples, rows)
	}
	if sink.RowCount() != rows {
		t.Fatalf("sink holds %d rows, want exactly %d (duplicates or losses)", sink.RowCount(), rows)
	}
	seen := make(map[int64]int, rows)
	it := sink.Scan()
	for {
		r, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[r[0].I]++
	}
	assertExactSet(t, seen, rows)
	if retries == 0 {
		t.Fatal("push reported no retries despite injected faults")
	}
}
