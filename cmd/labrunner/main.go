// Command labrunner regenerates the paper's evaluation: every table and
// figure, or a single one selected by id, printed as aligned text tables.
//
// Usage:
//
//	labrunner -list
//	labrunner                      # run everything (paper methodology)
//	labrunner -experiment table1   # run one experiment
//	labrunner -reps 5 -seed 7      # cheaper / different randomization
package main

import (
	"flag"
	"fmt"
	"os"

	"wsopt/internal/experiments"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiment ids and exit")
		id     = flag.String("experiment", "", "run a single experiment by id (default: all)")
		reps   = flag.Int("reps", 10, "replicated runs per data point")
		seed   = flag.Int64("seed", 1, "randomization seed")
		format = flag.String("format", "txt", "output format: txt, csv or md")
		outDir = flag.String("out", "", "write one file per experiment into this directory instead of stdout")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-20s %s\n", id, experiments.Title(id))
		}
		return
	}
	opts := experiments.Options{Reps: *reps, Seed: *seed}

	if *outDir != "" {
		paths, err := experiments.SaveAll(*outDir, *format, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d reports to %s\n", len(paths), *outDir)
		return
	}

	emit := func(rep experiments.Report) {
		switch *format {
		case "csv":
			if err := rep.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "md":
			fmt.Println(rep.MarkdownTable())
		default:
			fmt.Println(rep)
		}
	}
	if *id != "" {
		rep, err := experiments.Run(*id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emit(rep)
		return
	}
	for _, rep := range experiments.All(opts) {
		emit(rep)
	}
}
