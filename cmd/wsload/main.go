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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
)

func main() {
	logger := log.New(os.Stderr, "wsload: ", 0)
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	opts, err := parseOptions(fs, os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil && opts == nil:
		os.Exit(2) // fs.Parse has printed the error and the usage
	case err != nil:
		logger.Fatal(err)
	}
	c, err := client.New(opts.url, opts.codec, nil)
	if err != nil {
		logger.Fatal(err)
	}
	c.SetRetry(client.RetryPolicy{MaxAttempts: opts.retries})

	if opts.setLoad != "" {
		if err := c.SetLoad(context.Background(), opts.jobs, opts.queries, opts.memory); err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("load set to jobs=%d queries=%d memory=%.2f\n", opts.jobs, opts.queries, opts.memory)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.duration)
	defer cancel()

	type streamStats struct {
		queries int
		tuples  int
		blocks  int
		errors  int
	}
	stats := make([]streamStats, opts.streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil && (opts.maxQueries == 0 || stats[i].queries < opts.maxQueries) {
				res, err := c.Run(ctx, client.Query{Table: opts.table},
					core.NewStatic(opts.size), client.MetricPerTuple, false)
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
	// Finished queries leave their sessions' DELETEs behind them; do not
	// exit before they have landed (no error without a deadline).
	_ = c.Wait(context.Background())

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
