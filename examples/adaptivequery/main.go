// Adaptive query over a live web service: starts the block-pull service
// over generated TPC-H data (with WAN-like injected delays at a small
// timescale), then pulls the full Customer relation with the hybrid
// controller adapting the block size every request — Algorithm 1 of the
// paper end to end, over real HTTP.
//
//	go run ./examples/adaptivequery
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"wsopt"
)

func main() {
	// Small scale factor so the example runs in seconds.
	const sf = 0.05 // 7500 customers
	cat, err := wsopt.LoadTPCH(sf)
	if err != nil {
		log.Fatal(err)
	}

	// Shape per-block delays like conf1.3 (WAN, memory-loaded server),
	// replayed 2000x faster than real time.
	spec, err := wsopt.ConfigurationByName("conf1.3")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := wsopt.NewServer(wsopt.ServerConfig{
		Catalog:    cat,
		CostModel:  spec.New(time.Now().UnixNano()).Model(),
		SleepScale: 0.0005,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	customer, err := cat.Table("customer")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service up at %s with %d customers\n", ts.URL, customer.RowCount())

	c, err := wsopt.NewClient(ts.URL, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	cfg := wsopt.DefaultControllerConfig()
	cfg.Limits = wsopt.Limits{Min: 50, Max: 4000} // scaled to the smaller relation
	cfg.InitialSize = 100
	cfg.B1 = 400
	ctl, err := wsopt.NewHybridController(cfg)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := c.Run(context.Background(),
		wsopt.Query{Table: "customer", Columns: []string{"c_custkey", "c_name", "c_acctbal"}},
		ctl, wsopt.MetricPerTuple, true)
	if err != nil {
		log.Fatal(err)
	}
	// The run left its session's DELETE behind it; a process that exits
	// (or, here, stops its server) lets it land first. Without a deadline
	// Wait has no error to return.
	_ = c.Wait(context.Background())

	fmt.Printf("pulled %d tuples in %d blocks over live HTTP (%v wall, %.1f s simulated)\n",
		res.Tuples, res.Blocks, time.Since(start).Round(time.Millisecond), res.SimulatedMS/1000)
	fmt.Printf("block-size trajectory (every 5th block): ")
	for i := 0; i < len(res.Sizes); i += 5 {
		fmt.Printf("%d ", res.Sizes[i])
	}
	fmt.Println()
}
