package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// tracedRun executes one adaptive query against a fresh, identically
// seeded in-process server with an identically seeded controller, with
// -trace on or off, and returns what main would have seen.
func tracedRun(t *testing.T, trace, push bool) (*client.RunResult, *service.Server, string) {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{{Name: "k", Type: minidb.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]minidb.Row, 5000)
	for i := range rows {
		rows[i] = minidb.Row{minidb.NewInt(int64(i))}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// SleepScale 0 prices blocks without sleeping: every injected delay is
	// far below a millisecond of wall time, and the jitter is seeded.
	srv, err := service.New(service.Config{
		Catalog:   cat,
		Codec:     wire.Binary{},
		CostModel: netsim.CostModel{LatencyMS: 8, PerTupleMS: 0.02, LatencyJitter: 0.2},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, wire.Binary{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(client.PushConfig{Enabled: push})
	cfg := core.DefaultConfig()
	cfg.InitialSize = 100
	cfg.Limits = core.Limits{Min: 50, Max: 2000}
	cfg.B1 = 150
	cfg.Seed = 5
	ctl, err := core.NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if trace {
		c.SetEvents(&tracePrinter{out: &out, useInjected: true})
	}
	res, err := c.Run(context.Background(), client.Query{Table: "data"}, ctl, client.MetricPerTuple, true)
	if err != nil {
		t.Fatal(err)
	}
	return res, srv, out.String()
}

// -trace only prints: it used to run its own copy of the block loop, which
// fed the controller integer-truncated timings (every sub-millisecond
// block observed as 0) and pulled even under -push. A traced pull run must
// command exactly the sizes the untraced one does; a traced push run must
// really stream (push sizes depend on grant timing, so they are not
// comparable run to run).
func TestTraceDoesNotChangeTheRun(t *testing.T) {
	for _, push := range []bool{false, true} {
		plain, _, _ := tracedRun(t, false, push)
		traced, srv, out := tracedRun(t, true, push)
		if plain.Tuples != 5000 || traced.Tuples != 5000 {
			t.Fatalf("push=%v: delivered %d untraced, %d traced tuples, want 5000", push, plain.Tuples, traced.Tuples)
		}
		if !push && (len(plain.Sizes) < 5 || !reflect.DeepEqual(plain.Sizes, traced.Sizes)) {
			t.Errorf("push=%v: -trace changed the trajectory:\n  off: %v\n  on:  %v", push, plain.Sizes, traced.Sizes)
		}
		if lines := strings.Count(out, "\n"); lines != traced.Blocks {
			t.Errorf("push=%v: -trace printed %d lines for %d blocks:\n%s", push, lines, traced.Blocks, out)
		}
		if sent := srv.Stats().PushFramesSent; push != (sent > 0) {
			t.Errorf("push=%v: traced run left PushFramesSent = %d", push, sent)
		}
	}
}
