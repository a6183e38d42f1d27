package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

func init() {
	register("live-validation", "live HTTP stack vs simulator: the same cost model must yield the same totals", liveValidation)
}

// liveModel is the conf2.2-shaped cost model used for the live/sim
// comparison, scaled to a 45K-tuple Orders sample so the HTTP run stays
// quick: the limits and gains scale by the same factor, preserving the
// block-count dynamics.
func liveModel() netsim.CostModel {
	return netsim.CostModel{
		LatencyMS:     225,
		PerTupleMS:    0.12,
		KneeTuples:    1,
		PenaltyMS:     4e-6 * 100, // optimum scales from ~7.5K to ~750 tuples
		LatencyJitter: 0.22,
		TupleJitter:   0.02,
	}
}

// pricedStack is the deployed pipeline with a cost model in place of a
// network: a service over cat that prices every block by model and
// reports the price instead of sleeping it (SleepScale 0), an HTTP
// listener, and a client on it. The binary codec keeps decode cheap, so
// what a run accumulates in SimulatedMS is the cost model alone.
func pricedStack(cat *minidb.Catalog, model netsim.CostModel, seed int64) (*client.Client, *service.Server, func()) {
	srv, err := service.New(service.Config{Catalog: cat, Codec: wire.Binary{}, CostModel: model, Seed: seed})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c, err := client.New(ts.URL, wire.Binary{}, nil)
	if err != nil {
		panic(err)
	}
	return c, srv, ts.Close
}

// liveValidation runs the full HTTP stack (service + codec + client +
// controller) with injected delays (SleepScale 0, so no real sleeping)
// and compares the accumulated simulated time against the pure simulation
// engine under identical controller settings. Agreement validates that
// the simulator behind every other experiment faithfully represents the
// deployed pipeline.
func liveValidation(opts Options) Report {
	opts = opts.withDefaults()
	model := liveModel()
	limits := core.Limits{Min: 10, Max: 2000}

	cat := minidb.NewCatalog()
	if _, err := tpch.GenOrders(cat, 0.1); err != nil {
		panic(err) // deterministic generation cannot fail
	}
	tuples := tpch.OrdersCount(0.1)

	c, _, stop := pricedStack(cat, model, opts.Seed)
	defer stop()

	mkCfg := func(seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.Limits = limits
		cfg.InitialSize = 100
		cfg.B1 = 120
		cfg.DitherFactor = 3
		cfg.Seed = seed
		return cfg
	}

	rep := Report{
		ID:      "live-validation",
		Title:   "hybrid controller over live HTTP vs pure simulation (conf2.2-shaped costs, Orders at SF 0.1)",
		Columns: []string{"run", "live simulated s", "sim engine s", "live/sim"},
	}
	for r := 0; r < opts.Reps; r++ {
		seed := opts.Seed + int64(r)*7919
		ctl, err := core.NewHybrid(mkCfg(seed))
		if err != nil {
			panic(err)
		}
		res, err := c.Run(context.Background(), client.Query{Table: "orders", Columns: []string{"o_orderkey"}},
			ctl, client.MetricPerTuple, true)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("run %d failed: %v", r, err))
			continue
		}

		simCtl, err := core.NewHybrid(mkCfg(seed))
		if err != nil {
			panic(err)
		}
		simRes := runTuples(profile.New("live-twin", model, tuples, seed), simCtl, tuples)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", r+1),
			f1(res.SimulatedMS / 1000),
			f1(simRes.TotalMS / 1000),
			f3(res.SimulatedMS / simRes.TotalMS),
		})
	}
	rep.Notes = append(rep.Notes,
		"ratios near 1.0 mean the simulation engine and the deployed HTTP pipeline agree",
		"exact equality is not expected: the two paths draw noise in different orders")
	return rep
}
