// Command bench is the repository's one end-to-end + per-layer
// benchmark: client, backends, gateway and delay proxy in one process,
// talking over real loopback TCP. See README.md for the workloads, the
// metrics and how to read them, and ../BENCHMARK.json for the contract
// a driver runs it under:
//
//	go -C bench run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed reports that a run completed but an output check or an
// operation failed; the result line has already been printed.
var errFailed = errors.New("output check failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (default: all seven, one after the other)")
		seed     = fs.Int64("seed", 1, "seeds the servers' delay-noise RNGs, the controller seed list and the ingest row choice")
		seconds  = fs.Float64("seconds", 8, "how long each phase measures, per workload (BENCHMARK.json's driver passes its run_seconds)")
		trace    = fs.Int("trace", 2, "0: end-to-end metrics from untraced trials; 1: per-layer metrics from the traced run; 2: both")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times and compare the end-to-end metrics of the first two against their bounds")
		jsonOnly = fs.Bool("json", false, "print only the result line(s), not the tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 2 || *repeat < 1 {
		return fmt.Errorf("need -seconds > 0, -trace in 0..2, -repeat >= 1")
	}
	// The benchmark hosts both ends of every connection: on one
	// processor the client and the servers only ever alternate, and
	// nothing it reports would describe a deployment.
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: the benchmark runs client and servers in one process and refuses to measure them time-sliced on fewer than 2 processors", n)
	}
	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			names := make([]string, len(workloads))
			for i := range workloads {
				names[i] = workloads[i].name
			}
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
		}
		run = []workload{*w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, sf: 0.2, epochs: 5, outDir: "out"}
	if !*jsonOnly {
		fmt.Fprintf(out, "wsopt bench: %s, nproc=%d GOMAXPROCS=%d, loopback TCP, dataset tpch sf=%g, seed=%d, %gs per phase over %d epochs\n",
			runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.sf, cfg.seed, cfg.seconds, cfg.epochs)
	}

	var sets [][]result
	failed := false
	for r := 0; r < *repeat; r++ {
		var set []result
		for i := range run {
			res, err := runWorkload(context.Background(), &run[i], cfg)
			if err != nil {
				failed = true
				res.correct = false
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", run[i].name, err)
			}
			failed = failed || res.failed > 0
			if !*jsonOnly {
				printTable(out, res)
			}
			if err := printResult(out, res); err != nil {
				return err
			}
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	if *repeat > 1 && !failed {
		if !compareSets(out, sets[0], sets[1]) {
			return fmt.Errorf("two runs of the same code disagree by more than a metric's bound")
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// printTable prints every metric of the result by name with its unit.
func printTable(out io.Writer, res result) {
	fmt.Fprintf(out, "\n== %s: correct=%v failed_frac=%d/%d\n", res.workload, res.correct, res.failed, max(res.attempted, 1))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.metrics[d.name]; ok {
				fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "  # %s\n", strings.ReplaceAll(strings.TrimRight(n, "\n"), "\n", "\n  # "))
	}
}

// printResult prints the driver's result line: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func printResult(out io.Writer, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, map[string]value{}}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.metrics[d.name]; ok {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s: metric %s is %v", res.workload, d.name, v)
				}
				line.Metrics[d.name] = value{v, d.unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// compareSets prints, per workload and end-to-end metric, how far two
// runs of the same code are apart relative to the metric's bound, and
// reports whether every pair is within it.
func compareSets(out io.Writer, a, b []result) bool {
	ok := true
	fmt.Fprintf(out, "\n== repeatability: |run2 - run1| / run1 against each bound\n")
	for i := range a {
		for _, d := range endToEnd {
			v1, has := a[i].metrics[d.name]
			if !has {
				continue
			}
			v2 := b[i].metrics[d.name]
			rel := math.Abs(v2-v1) / v1
			verdict := "ok"
			if rel > d.bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(out, "  %-18s %-20s %12.6g %12.6g  apart %6.2f%%, bound %2.0f%%  %s\n",
				a[i].workload, d.name, v1, v2, 100*rel, 100*d.bound, verdict)
		}
	}
	return ok
}
