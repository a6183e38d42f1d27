// Command wsload generates concurrent load against a wsblockd service —
// the live analogue of the paper's motivation experiments, where extra
// queries and jobs on the server bend the response-time profile and move
// the optimum. It runs N concurrent fixed-size query streams for a
// duration and reports per-stream throughput.
//
// Usage:
//
//	wsload -url http://localhost:8080 -streams 3 -table customer -size 2000 -duration 30s
//	wsload -streams 8 -size 400 -max-queries 2      # bounded stress run
//	wsload -set-load 2:1:0.5          # just set the simulated load knob
//
// With -max-queries each stream stops after that many completed queries
// (instead of running until -duration), which gives stress tests a
// deterministic amount of work to assert against. Any stream error makes
// wsload exit nonzero, so a harness can gate on a clean run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/wire"
)

func main() {
	var (
		url        = flag.String("url", "http://localhost:8080", "service base URL")
		table      = flag.String("table", "customer", "relation each stream scans")
		size       = flag.Int("size", 2000, "fixed block size of the load streams")
		streams    = flag.Int("streams", 3, "concurrent query streams")
		duration   = flag.Duration("duration", 30*time.Second, "how long to run")
		codecName  = flag.String("codec", "xml", "block codec: xml, json or binary, each optionally +gzip (must match the server: nothing is negotiated)")
		setLoad    = flag.String("set-load", "", "set the simulated load knob as jobs:queries:memory and exit")
		maxQueries = flag.Int("max-queries", 0, "queries per stream before it stops early (0 = run until -duration)")
		retries    = flag.Int("retries", 3, "pull attempts per block before a stream gives up")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "wsload: ", 0)

	codec, err := wire.ByName(*codecName)
	if err != nil {
		logger.Fatal(err)
	}
	c, err := client.New(*url, codec, nil)
	if err != nil {
		logger.Fatal(err)
	}
	c.SetRetry(client.RetryPolicy{MaxAttempts: *retries})

	if *setLoad != "" {
		var jobs, queries int
		var memory float64
		if _, err := fmt.Sscanf(*setLoad, "%d:%d:%f", &jobs, &queries, &memory); err != nil {
			logger.Fatalf("bad -set-load %q: %v", *setLoad, err)
		}
		if err := c.SetLoad(context.Background(), jobs, queries, memory); err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("load set to jobs=%d queries=%d memory=%.2f\n", jobs, queries, memory)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	type streamStats struct {
		queries int
		tuples  int
		blocks  int
		errors  int
	}
	stats := make([]streamStats, *streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil && (*maxQueries == 0 || stats[i].queries < *maxQueries) {
				res, err := c.Run(ctx, client.Query{Table: *table},
					core.NewStatic(*size), client.MetricPerTuple, false)
				if res != nil {
					stats[i].tuples += res.Tuples
					stats[i].blocks += res.Blocks
				}
				if err != nil {
					if ctx.Err() != nil {
						return // deadline: expected
					}
					stats[i].errors++
					logger.Printf("stream %d: %v", i, err)
					return
				}
				stats[i].queries++
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := streamStats{}
	for i, s := range stats {
		fmt.Printf("stream %d: %d queries, %d blocks, %d tuples\n", i, s.queries, s.blocks, s.tuples)
		total.queries += s.queries
		total.blocks += s.blocks
		total.tuples += s.tuples
		total.errors += s.errors
	}
	fmt.Printf("total: %d queries, %d tuples in %v (%.0f tuples/s)\n",
		total.queries, total.tuples, elapsed.Round(time.Millisecond),
		float64(total.tuples)/elapsed.Seconds())
	if total.errors > 0 {
		logger.Fatalf("%d stream(s) failed", total.errors)
	}
}
