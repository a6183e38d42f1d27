package wsopt_test

// Integration tests of the public facade: the flows a downstream user of
// the library runs, end to end — simulation, live HTTP pull, push, model
// identification — using only the root wsopt package (plus the embedded
// database types it re-exports).

import (
	"context"
	"net/http/httptest"
	"testing"

	"wsopt"
	"wsopt/internal/minidb"
)

func TestFacadeSimulationFlow(t *testing.T) {
	spec, err := wsopt.ConfigurationByName("conf2.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := wsopt.DefaultControllerConfig()
	cfg.Limits = spec.Limits
	cfg.B1 = spec.B1
	ctl, err := wsopt.NewHybridController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := wsopt.SimulateTransfer(spec.New(1), ctl, spec.Tuples)
	if res.Tuples != spec.Tuples {
		t.Fatalf("transferred %d tuples, want %d", res.Tuples, spec.Tuples)
	}
	if res.TotalMS <= 0 || res.Blocks == 0 {
		t.Fatal("degenerate simulation result")
	}

	// The hybrid should comfortably beat a bad static choice.
	static := wsopt.NewStaticController(spec.Limits.Min)
	worst := wsopt.SimulateTransfer(spec.New(1), static, spec.Tuples)
	if worst.TotalMS <= res.TotalMS {
		t.Fatalf("hybrid (%.0f ms) should beat static-min (%.0f ms)", res.TotalMS, worst.TotalMS)
	}
}

func TestFacadeAllControllerConstructors(t *testing.T) {
	cfg := wsopt.DefaultControllerConfig()
	for name, mk := range map[string]func() (wsopt.Controller, error){
		"constant": func() (wsopt.Controller, error) { return wsopt.NewConstantController(cfg) },
		"adaptive": func() (wsopt.Controller, error) { return wsopt.NewAdaptiveController(cfg) },
		"hybrid":   func() (wsopt.Controller, error) { return wsopt.NewHybridController(cfg) },
		"mimd": func() (wsopt.Controller, error) {
			return wsopt.NewMIMDController(wsopt.MIMDConfig{
				InitialSize: 1000, Gain: 1.5, Limits: cfg.Limits, AvgHorizon: 3,
			})
		},
		"aimd": func() (wsopt.Controller, error) {
			return wsopt.NewAIMDController(wsopt.AIMDConfig{
				InitialSize: 1000, Increase: 500, Decrease: 0.5, Limits: cfg.Limits, AvgHorizon: 3,
			})
		},
		"model": func() (wsopt.Controller, error) {
			return wsopt.NewModelBasedController(wsopt.ModelBasedConfig{Limits: cfg.Limits})
		},
		"self-tuning": func() (wsopt.Controller, error) {
			return wsopt.NewSelfTuningController(wsopt.SelfTuningConfig{Limits: cfg.Limits})
		},
	} {
		ctl, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ctl.Size() < 1 {
			t.Fatalf("%s: degenerate initial size", name)
		}
		ctl.Observe(1.5)
		ctl.Observe(1.4)
		if ctl.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
}

func TestFacadeLiveHTTPFlow(t *testing.T) {
	cat, err := wsopt.LoadTPCH(0.002) // 300 customers: fast
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wsopt.NewServer(wsopt.ServerConfig{
		Catalog:   cat,
		CostModel: wsopt.CostModel{LatencyMS: 5, PerTupleMS: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c, err := wsopt.NewClient(ts.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(wsopt.RetryPolicy{MaxAttempts: 2})

	cfg := wsopt.DefaultControllerConfig()
	cfg.InitialSize = 20
	cfg.Limits = wsopt.Limits{Min: 10, Max: 100}
	cfg.B1 = 20
	ctl, err := wsopt.NewHybridController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(),
		wsopt.Query{Table: "customer", Columns: []string{"c_custkey", "c_name"}},
		ctl, wsopt.MetricPerTuple, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 300 {
		t.Fatalf("pulled %d tuples, want 300", res.Tuples)
	}
	if st := srv.Stats(); st.TuplesServed != 300 || st.SessionsOpened != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadePushFlow(t *testing.T) {
	// Server with an empty sink table.
	cat := minidb.NewCatalog()
	schema := minidb.Schema{{Name: "id", Type: minidb.Int64}}
	if _, err := cat.CreateTable("sink", schema); err != nil {
		t.Fatal(err)
	}
	srv, err := wsopt.NewServer(wsopt.ServerConfig{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c, err := wsopt.NewClient(ts.URL, wsopt.CodecBinary(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// CodecBinary on the client but XML on the server must fail loudly.
	if _, err := c.OpenPush(context.Background(), "sink"); err != nil {
		t.Fatalf("open push: %v", err)
	}

	// Matching codec works end to end.
	c2, _ := wsopt.NewClient(ts.URL, wsopt.CodecXML(), nil)
	localCat := minidb.NewCatalog()
	local, _ := localCat.CreateTable("src", schema)
	rows := make([]minidb.Row, 50)
	for i := range rows {
		rows[i] = minidb.Row{minidb.NewInt(int64(i))}
	}
	if err := local.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Push(context.Background(), "sink", local.Scan(),
		wsopt.NewStaticController(7), wsopt.MetricPerTuple, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 50 {
		t.Fatalf("pushed %d tuples, want 50", res.Tuples)
	}
	sink, _ := cat.Table("sink")
	if sink.RowCount() != 50 {
		t.Fatalf("sink has %d rows", sink.RowCount())
	}
}

func TestFacadeModelFits(t *testing.T) {
	xs := []float64{100, 4000, 8000, 12000, 16000, 20000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 225/x + 4e-6*x + 0.12
	}
	p, err := wsopt.FitParabolic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := p.Optimum(wsopt.Limits{Min: 100, Max: 20000})
	if !ok || opt < 7000 || opt > 8000 {
		t.Fatalf("parabolic optimum = (%g, %v), want ~7500", opt, ok)
	}
	if _, err := wsopt.FitQuadratic(xs, ys); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentAccess(t *testing.T) {
	ids := wsopt.Experiments()
	if len(ids) < 18 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	rep, err := wsopt.RunExperiment("fig5", wsopt.ExperimentOptions{Reps: 2, TrajectorySteps: 8, SweepPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig5" || len(rep.Rows) == 0 {
		t.Fatal("experiment report malformed")
	}
}

func TestFacadeConfigurations(t *testing.T) {
	if got := len(wsopt.Configurations()); got != 5 {
		t.Fatalf("configurations = %d, want 5", got)
	}
	if _, err := wsopt.ConfigurationByName("nope"); err == nil {
		t.Fatal("unknown configuration should error")
	}
	if _, err := wsopt.CodecByName("binary+gzip"); err != nil {
		t.Fatal(err)
	}
}
