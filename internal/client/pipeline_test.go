package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// pipelineStack spins a service with real (small) injected sleeps so the
// overlap is measurable.
func pipelineStack(t *testing.T, rows int, sleepScale float64) *Client {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{{Name: "k", Type: minidb.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, rows)
	for i := range batch {
		batch[i] = minidb.Row{minidb.NewInt(int64(i))}
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Catalog:    cat,
		CostModel:  netsim.CostModel{LatencyMS: 10, PerTupleMS: 0.01},
		SleepScale: sleepScale,
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
	return c
}

func TestRunPipelinedDeliversEverything(t *testing.T) {
	c := pipelineStack(t, 500, 0)
	seen := map[int64]bool{}
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(64), MetricPerTuple, true,
		func(schema minidb.Schema, rows []minidb.Row) error {
			for _, r := range rows {
				if seen[r[0].I] {
					return fmt.Errorf("duplicate key %d", r[0].I)
				}
				seen[r[0].I] = true
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 500 || len(seen) != 500 {
		t.Fatalf("handled %d distinct tuples of %d pulled", len(seen), res.Tuples)
	}
	if res.WallTime <= 0 {
		t.Fatal("wall time not measured")
	}
}

func TestRunPipelinedOverlapsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const perBlockProcess = 12 * time.Millisecond
	c := pipelineStack(t, 400, 1.0) // ~14ms injected per 100-tuple block

	run := func(pipelined bool) time.Duration {
		start := time.Now()
		handler := func(minidb.Schema, []minidb.Row) error {
			time.Sleep(perBlockProcess)
			return nil
		}
		if pipelined {
			if _, err := c.RunPipelined(context.Background(), Query{Table: "data"},
				core.NewStatic(100), MetricPerTuple, true, handler); err != nil {
				t.Fatal(err)
			}
		} else {
			sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close(context.Background())
			for !sess.Done() {
				blk, err := sess.Next(context.Background(), 100)
				if err != nil {
					t.Fatal(err)
				}
				if len(blk.Rows()) > 0 {
					if err := handler(blk.Schema, blk.Rows()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return time.Since(start)
	}

	sequential := run(false)
	pipelined := run(true)
	// With 4 blocks of ~14ms transfer + 12ms processing, the overlap
	// should save a visible fraction; allow generous slack for CI noise.
	if pipelined >= sequential {
		t.Errorf("pipelined run (%v) should beat sequential (%v)", pipelined, sequential)
	}
}

func TestRunPipelinedHandlerErrorAborts(t *testing.T) {
	c := pipelineStack(t, 300, 0)
	boom := errors.New("boom")
	calls := 0
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(50), MetricPerTuple, true,
		func(minidb.Schema, []minidb.Row) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handler's error", err)
	}
	if res == nil || res.Blocks < 2 {
		t.Fatal("partial result missing")
	}
}

// Regression: the prefetch goroutine used to account its block into the
// result (and feed the controller) as soon as the pull finished — so when
// the handler aborted the run, the joined-but-never-delivered prefetched
// block inflated res.Tuples/Blocks/Sizes past what the handler saw.
func TestRunPipelinedAbortAccountingMatchesHandler(t *testing.T) {
	c := pipelineStack(t, 300, 0)
	boom := errors.New("boom")
	for abortOn := 1; abortOn <= 3; abortOn++ {
		handled, calls := 0, 0
		ctl := core.NewStatic(50)
		res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
			ctl, MetricPerTuple, true,
			func(_ minidb.Schema, rows []minidb.Row) error {
				calls++
				if calls == abortOn {
					return boom
				}
				handled += len(rows)
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("abortOn=%d: err = %v, want the handler's error", abortOn, err)
		}
		// The aborting call itself received one block the handler observed
		// before failing; everything the result reports must have been
		// handed off, the in-flight prefetch must not leak into it.
		wantTuples := handled + 50
		if res.Tuples != wantTuples {
			t.Errorf("abortOn=%d: res.Tuples = %d, handler observed %d", abortOn, res.Tuples, wantTuples)
		}
		if res.Blocks != calls {
			t.Errorf("abortOn=%d: res.Blocks = %d, handler ran %d times", abortOn, res.Blocks, calls)
		}
		if len(res.Sizes) != calls {
			t.Errorf("abortOn=%d: len(res.Sizes) = %d, handler ran %d times", abortOn, len(res.Sizes), calls)
		}
	}
}

func TestRunPipelinedNilHandler(t *testing.T) {
	c := pipelineStack(t, 120, 0)
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(50), MetricPerBlock, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 120 {
		t.Fatalf("tuples = %d", res.Tuples)
	}
}

func TestRunPipelinedAdaptiveController(t *testing.T) {
	c := pipelineStack(t, 600, 0)
	cfg := core.Config{
		InitialSize: 30, Limits: core.Limits{Min: 10, Max: 200},
		B1: 30, B2: 25, AvgHorizon: 1, CriterionWindow: 5, CriterionThreshold: 1,
	}
	ctl, err := core.NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		ctl, MetricPerTuple, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 600 {
		t.Fatalf("tuples = %d", res.Tuples)
	}
	varied := false
	for _, s := range res.Sizes[1:] {
		if s != res.Sizes[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("controller never adapted under pipelining")
	}
}
