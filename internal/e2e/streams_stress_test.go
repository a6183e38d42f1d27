package e2e

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// TestStressParallelStreamClient is part of the concurrency stress gate
// (scripts/verify.sh runs ^TestStress under -race): several full
// parallel-stream client runs at once — many concurrent sessions created,
// pulled, and closed across goroutines, every stream feeding its run's
// shared vector controller — against an in-process service. The race
// detector checks both sides at once: the server's stream-group
// accounting and session store, and the client's shared-controller,
// lease-dispenser, and worker-supervision paths.
func TestStressParallelStreamClient(t *testing.T) {
	const rows = 8000
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
	srv, err := service.New(service.Config{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const runs = 4
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	totals := make(chan int, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := client.New(ts.URL, wire.XML{}, nil)
			if err != nil {
				errs <- err
				return
			}
			cfg := core.DefaultVectorConfig()
			cfg.Dims[core.DimSize].Initial = 200
			cfg.Dims[core.DimSize].Limits = core.Limits{Min: 50, Max: 1000}
			cfg.Dims[core.DimSize].B1 = 100
			cfg.Dims[core.DimStreams].Limits = core.Limits{Min: 1, Max: 6}
			cfg.Seed = seed
			ctl, err := core.NewVector(cfg)
			if err != nil {
				errs <- err
				return
			}
			res, err := c.RunVector(context.Background(), client.Query{Table: "data"}, ctl, client.VectorRunConfig{
				Metric:      client.MetricPerTuple,
				ChunkTuples: 700,
			})
			if err == nil {
				// A finished chunk's session closes behind the run.
				err = c.Wait(context.Background())
			}
			if err != nil {
				errs <- err
				return
			}
			totals <- res.Tuples
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	close(totals)
	for err := range errs {
		t.Fatalf("parallel-stream run failed: %v", err)
	}
	got := 0
	n := 0
	for tuples := range totals {
		if tuples != rows {
			t.Errorf("a run delivered %d tuples, want %d", tuples, rows)
		}
		got += tuples
		n++
	}
	if n != runs {
		t.Fatalf("only %d/%d runs completed", n, runs)
	}

	// The server's own accounting must agree with the clients': every
	// tuple served exactly once, stream groups opened and fully released.
	st := srv.Stats()
	if st.TuplesServed != int64(got) {
		t.Errorf("server served %d tuples, clients saw %d", st.TuplesServed, got)
	}
	if st.StreamSessionsOpened == 0 {
		t.Error("no stream-tagged sessions accounted")
	}
	if st.PeakGroupStreams < 1 || st.PeakGroupStreams > 6 {
		t.Errorf("peak group streams %d outside the controller's limits", st.PeakGroupStreams)
	}
	if st.StreamGroupsActive != 0 {
		t.Errorf("%d stream groups still active after all runs closed", st.StreamGroupsActive)
	}
}
