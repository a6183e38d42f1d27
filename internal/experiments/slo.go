package experiments

import (
	"fmt"
	"strconv"

	"wsopt/internal/regulator"
	"wsopt/internal/sim"
	"wsopt/internal/stats"
)

func init() {
	register("slo-sweep", "SLO regulation of admission: a static session ceiling vs both regulator laws on the coupled-loop scenarios", sloSweep)
}

// sloTicks is the regulator ticks per cell.
const sloTicks = 140

// sloSweep runs the coupled-loop scenario family three ways per
// scenario: a static admission ceiling (the -max-sessions behaviour,
// emulated by pinning floor == ceiling) and the two regulator laws. It
// reports how much of the late run each policy kept inside the SLO band.
// The evidence for the regulator is the contrast: where the static
// ceiling misses the SLO, both laws hold it at an admitted population
// above the floor.
func sloSweep(opts Options) Report {
	opts = opts.withDefaults()
	opt := sim.CoupledOptions{Ticks: sloTicks, Seed: opts.Seed}
	rep := Report{
		ID:    "slo-sweep",
		Title: fmt.Sprintf("SLO-regulation sweep: %d regulator ticks per cell", sloTicks),
		Columns: []string{"scenario", "policy", "SLO p95 ms", "within SLO", "final limit", "mean admitted",
			"settled@", "overshoot", "oscillating", "max pressure"},
	}
	for _, sc := range sim.CoupledScenarios() {
		static := sc
		static.Floor = static.Ceiling // clamp pins the limit: no regulation
		for _, cell := range []struct {
			policy string
			sc     sim.CoupledScenario
			mode   regulator.Mode
		}{
			{"static-ceiling", static, regulator.ModeProportional},
			{"proportional", sc, regulator.ModeProportional},
			{"step", sc, regulator.ModeStep},
		} {
			cell.sc.Mode = cell.mode
			r := sim.RunCoupled(cell.sc, opt)
			maxP, _ := stats.Max(r.Pressures)
			settled := "never"
			if r.SettlingTick >= 0 {
				settled = fmt.Sprintf("tick %d", r.SettlingTick)
			}
			rep.Rows = append(rep.Rows, []string{
				r.Scenario, cell.policy, strconv.FormatFloat(r.SLOp95MS, 'g', -1, 64),
				pct(r.WithinSLOFrac), strconv.Itoa(r.FinalLimit), f1(r.MeanAdmitted),
				settled, pct(r.OvershootFrac), strconv.FormatBool(r.Oscillating), f2(maxP),
			})
		}
	}
	return rep
}
