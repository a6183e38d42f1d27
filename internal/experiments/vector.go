package experiments

import (
	"fmt"

	"wsopt/internal/core"
	"wsopt/internal/netsim"
	"wsopt/internal/sim"
	"wsopt/internal/sysid"
)

func init() {
	register("vector-sweep", "vector controller (size x streams x depth) vs the single-knob hybrid, warm- and cold-started, on scenarios whose optima live in different dimensions", vectorSweep)
}

// vectorRounds is the simulated transfer rounds per cell.
const vectorRounds = 400

// vectorSweep simulates the multi-dimensional transfer loop on the
// reference vector scenarios (bandwidth-, latency- and server-load-
// bound) under four drivers: the vector controller, the single-knob
// hybrid pinned at one stream (structurally unable to exploit two of the
// profiles), the vector controller warm-started from a stored workload
// optimum, and the cold 6-sample identification path. Per cell it reports
// the ground-truth optimum, the first round the driver sustained the 5%
// band around it, and where it ended. "final/opt" stands beside
// "converged@" on purpose: a driver can be credited with convergence in
// round 1 and still end far from the optimum.
func vectorSweep(opts Options) Report {
	opts = opts.withDefaults()
	opt := sim.VectorOptions{Rounds: vectorRounds, Seed: opts.Seed}
	lims := netsim.DefaultVectorLimits()
	mkVector := func() *core.VectorController {
		cfg := core.DefaultVectorConfig()
		cfg.Dims[core.DimSize].B1 = 1200
		cfg.Dims[core.DimSize].DitherFactor = 25
		cfg.Seed = opts.Seed
		ctl, err := core.NewVector(cfg)
		if err != nil {
			panic(err)
		}
		return ctl
	}

	rep := Report{
		ID:      "vector-sweep",
		Title:   fmt.Sprintf("vector-controller sweep: %d rounds per cell, 5%% convergence band, cost in ms/tuple", vectorRounds),
		Columns: []string{"scenario", "controller", "optimum", "opt cost", "converged@", "final", "final cost", "final/opt", "mean cost"},
	}
	for _, sc := range sim.VectorScenarios() {
		hcfg := core.DefaultConfig()
		hcfg.Seed = opts.Seed
		hybrid1d := sim.RunVector(sc, mustHybrid(hcfg), opt)
		hybrid1d.Controller += "-1d"

		warmCtl := mkVector()
		store, err := sysid.OpenStore("")
		if err != nil {
			panic(err)
		}
		w := sysid.WorkloadDescriptor{TupleBytes: 64, ScaleFactor: 1}
		optVec, optY := sc.Model.OptimalVector(lims, 100)
		if err := store.Put(sysid.ProfileRecord{Workload: w, Optimum: optVec, PerTupleMS: optY, Rounds: vectorRounds}); err != nil {
			panic(err)
		}
		if !store.WarmStart(warmCtl, w, 0) {
			panic("vector-sweep: the store refused an exact-match warm start")
		}
		warm := sim.RunVector(sc, warmCtl, opt)
		warm.Controller += "+warm-start"

		cold, err := sysid.NewVectorColdStart(mkVector(), lims.Size, 0)
		if err != nil {
			panic(err)
		}

		for _, r := range []sim.VectorResult{
			sim.RunVector(sc, mkVector(), opt),
			hybrid1d,
			warm,
			sim.RunVector(sc, cold, opt),
		} {
			conv := "never"
			if r.Converged() {
				conv = fmt.Sprintf("round %d", r.ConvergedRound)
			}
			rep.Rows = append(rep.Rows, []string{
				r.Scenario, r.Controller,
				r.Optimum.String(), f4(r.OptimumPerTupleMS), conv,
				r.Final.String(), f4(r.FinalPerTupleMS), f2(r.FinalPerTupleMS / r.OptimumPerTupleMS),
				f4(r.MeanPerTupleMS),
			})
		}
	}
	return rep
}
