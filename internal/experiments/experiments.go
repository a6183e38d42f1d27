// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation, plus the ablations called out in
// DESIGN.md and the sweeps behind this reproduction's own extensions
// (vector-sweep, slo-sweep, push-vs-pull). Each experiment builds its
// workload from the calibrated profiles, runs the controllers through
// the simulation engine (or the priced HTTP stack, which reports a
// block's modelled cost instead of sleeping it), and renders the
// rows/series the docs quote.
//
// The rule for what belongs here: the number is a pure function of the
// seed. results/ holds every report as committed text and the `results`
// gate of scripts/verify.sh regenerates and compares them, so a
// wall-clock measurement cannot live here; those are bench/ and the Go
// benchmarks.
//
// Experiments are registered by id ("fig4a", "table1", ...) and are
// driven by cmd/labrunner and by the benchmark harness at the repo root.
package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"text/tabwriter"

	"wsopt/internal/core"
	"wsopt/internal/profile"
	"wsopt/internal/sim"
)

// Options tune an experiment run. The zero value is usable and maps to
// the paper's methodology (10 replicated runs).
type Options struct {
	// Reps is the number of replicated runs averaged per data point
	// (default 10, as in the paper).
	Reps int
	// Seed makes the whole experiment deterministic.
	Seed int64
	// SweepPoints is the number of fixed block sizes probed per profile
	// sweep (default 21).
	SweepPoints int
	// TrajectorySteps overrides the number of adaptivity steps plotted in
	// trajectory figures (0 keeps each figure's paper-matching default).
	TrajectorySteps int
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SweepPoints <= 1 {
		o.SweepPoints = 21
	}
	return o
}

func (o Options) steps(def int) int {
	if o.TrajectorySteps > 0 {
		return o.TrajectorySteps
	}
	return def
}

// Report is the rendered outcome of one experiment: a titled table plus
// free-form notes (the headline observations the paper draws).
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", r.ID, r.Title)
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	for i, c := range r.Columns {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, cell)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(&buf, "note: %s\n", n)
	}
	return buf.String()
}

// Runner executes one experiment.
type Runner func(Options) Report

var registry = map[string]struct {
	runner Runner
	title  string
}{}

func register(id, title string, r Runner) {
	registry[id] = struct {
		runner Runner
		title  string
	}{r, title}
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered description of an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes the experiment registered under id.
func Run(id string, opts Options) (Report, error) {
	e, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return e.runner(opts), nil
}

// All runs every registered experiment in id order.
func All(opts Options) []Report {
	out := make([]Report, 0, len(registry))
	for _, id := range IDs() {
		r, _ := Run(id, opts)
		out = append(out, r)
	}
	return out
}

// --- shared helpers ---

// baseConfig maps a profile spec to the paper's controller settings.
func baseConfig(spec profile.Spec, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Limits = spec.Limits
	cfg.B1 = spec.B1
	cfg.Seed = seed
	return cfg
}

// mustConstant and friends panic on configuration errors, which in the
// experiment definitions are always programming errors.
func mustConstant(cfg core.Config) core.Controller {
	c, err := core.NewConstant(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func mustAdaptive(cfg core.Config) core.Controller {
	c, err := core.NewAdaptive(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func mustHybrid(cfg core.Config) core.Controller {
	c, err := core.NewHybrid(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// sweepSizes builds the fixed-size grid for a spec's limits.
func sweepSizes(spec profile.Spec, points int) []int {
	span := spec.Limits.Max - spec.Limits.Min
	step := span / (points - 1)
	if step < 1 {
		step = 1
	}
	return sim.SizeGrid(spec.Limits.Min, spec.Limits.Max, step)
}

// groundTruth sweeps fixed sizes and returns the post-mortem optimum — the
// paper's normalization baseline ("the optimum block size, which can be
// defined only through a post-mortem analysis").
func groundTruth(spec profile.Spec, opts Options) sim.SweepPoint {
	pts := sim.FixedSweep(func(seed int64) profile.Profile { return spec.New(seed) },
		spec.Tuples, sweepSizes(spec, opts.SweepPoints), opts.Reps, opts.Seed)
	return sim.BestPoint(pts)
}

// meanTotal replicates an adaptive run and returns its mean total time.
func meanTotal(spec profile.Spec, mkCtl func(seed int64) core.Controller, opts Options) float64 {
	agg := sim.ReplicateTuples(opts.Reps, opts.Seed, func(seed int64) (profile.Profile, core.Controller) {
		return spec.New(seed), mkCtl(seed)
	}, spec.Tuples, core.DefaultConfig().AvgHorizon, sim.Options{})
	return agg.MeanTotalMS
}

// trajectory replicates a fixed-step run and returns the mean block-size
// decision per adaptivity step.
func trajectory(spec profile.Spec, mkCtl func(seed int64) core.Controller, steps int, opts Options) []float64 {
	n := core.DefaultConfig().AvgHorizon
	agg := sim.ReplicateBlocks(opts.Reps, opts.Seed, func(seed int64) (profile.Profile, core.Controller) {
		return spec.New(seed), mkCtl(seed)
	}, steps*n, n, sim.Options{})
	return agg.MeanStepSizes
}

// seriesTable renders aligned trajectories: one row per step, one column
// per named series. Shorter series pad with blanks.
func seriesTable(stepCol string, names []string, series [][]float64, every int) ([]string, [][]string) {
	if every < 1 {
		every = 1
	}
	cols := append([]string{stepCol}, names...)
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	var rows [][]string
	for i := 0; i < maxLen; i += every {
		row := make([]string, 0, len(cols))
		row = append(row, strconv.Itoa(i+1))
		for _, s := range series {
			if i < len(s) {
				row = append(row, strconv.Itoa(int(s[i]+0.5)))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return cols, rows
}

// runTuples and runBlocks are thin wrappers over the simulation engine
// with default options.
func runTuples(p profile.Profile, ctl core.Controller, tuples int) sim.Result {
	return sim.RunTuples(p, ctl, tuples, sim.Options{})
}

func runBlocks(p profile.Profile, ctl core.Controller, blocks int) sim.Result {
	return sim.RunBlocks(p, ctl, blocks, sim.Options{})
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// pct renders a fraction as a whole percentage.
func pct(frac float64) string { return strconv.FormatFloat(100*frac, 'f', 0, 64) + "%" }
