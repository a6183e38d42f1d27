package sim

import (
	"math"
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/profile"
)

// FailoverScenario is a deterministic mid-transfer failover: the session
// runs against the primary's cost regime, the primary is killed at a
// known block, and the transfer continues — transparently, with no lost
// or duplicated work — against the successor's regime. It is the
// simulation twin of the wsgate chaos gate: the client sees only a
// disturbance notification (the failover count a gateway block frame's
// header carries), while the cost of every subsequent block is priced by
// a different replica.
type FailoverScenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Primary prices blocks until the kill; Successor prices them after.
	// The two regimes should differ, otherwise the failover is a no-op
	// from the controller's perspective.
	Primary, Successor profile.Profile
	// KillAtBlock is the 0-based block index whose pull is the first to
	// be served by the successor (the primary died just before it).
	KillAtBlock int
	// Blocks is the total transfer length in blocks.
	Blocks int
}

// FailoverResult augments the usual trajectory with the phase bookkeeping
// the re-convergence assertions need.
type FailoverResult struct {
	Result
	// PhaseAtKill is the controller phase ("steady"/"transient") observed
	// just before the failover.
	PhaseAtKill string
	// Disturbed reports whether the controller acknowledged the
	// disturbance (implements core.Disturber directly or wrapped).
	Disturbed bool
	// ReenteredTransient reports whether the controller re-entered its
	// transient (searching) phase after the failover — the expected
	// reaction to an invalidated measurement history.
	ReenteredTransient bool
	// ReconvergedAtBlock is the 0-based index of the first post-failover
	// block at which the controller was back in steady state after
	// re-entering the transient; -1 if it never re-converged.
	ReconvergedAtBlock int
	// PreKillSteadyBlocks counts blocks spent in steady state before the
	// kill (convergence evidence for the primary regime).
	PreKillSteadyBlocks int
}

// RunFailover executes the scenario against ctl. The disturbance is
// delivered through core.NotifyDisturbance — the same entry point the
// client uses when a transparent gateway failover surfaces — so the
// whole notification path is exercised, not just the controller's
// Disturb method.
func RunFailover(sc FailoverScenario, ctl core.Controller, opt Options) FailoverResult {
	res := FailoverResult{
		Result:             Result{Controller: ctl.Name(), Profile: sc.Name},
		ReconvergedAtBlock: -1,
	}
	kill := func(i int) profile.Profile {
		if i != sc.KillAtBlock {
			return nil
		}
		res.PhaseAtKill = core.PhaseOf(ctl)
		res.Disturbed = core.NotifyDisturbance(ctl, "primary killed; transparent gateway failover")
		return sc.Successor
	}
	track := func(i int) {
		phase := core.PhaseOf(ctl)
		switch {
		case i < sc.KillAtBlock:
			if phase == "steady" {
				res.PreKillSteadyBlocks++
			}
		case phase == "transient":
			res.ReenteredTransient = true
		case phase == "steady" && res.ReenteredTransient && res.ReconvergedAtBlock < 0:
			res.ReconvergedAtBlock = i
		}
	}
	res.run(sc.Primary, ctl, opt.Metric, math.MaxInt, sc.Blocks, kill, track)
	return res
}

// FailoverScenarios returns the canonical deterministic scenarios: an
// unloaded WAN primary whose successor is (a) equally unloaded and (b)
// heavily loaded — the paper's conf1.1 → conf1.2 regime change, induced
// not by drifting load but by the gateway promoting a different replica.
func FailoverScenarios(seed int64) []FailoverScenario {
	p11, _ := profile.SpecByName("conf1.1")
	p12, _ := profile.SpecByName("conf1.2")
	return []FailoverScenario{
		{
			Name:        "failover-like-for-like",
			Primary:     p11.New(seed),
			Successor:   p11.New(seed + 1),
			KillAtBlock: 120,
			Blocks:      360,
		},
		{
			Name:        "failover-to-loaded-replica",
			Primary:     p11.New(seed),
			Successor:   p12.New(seed + 1),
			KillAtBlock: 120,
			Blocks:      360,
		},
	}
}

func hybridFor(t *testing.T, seed int64) core.Controller {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	ctl, err := core.NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// TestFailoverScenarioReconverges is the deterministic failover gate: a
// hybrid controller that has converged on the primary regime must, when
// the primary is killed mid-transfer and the session transparently moves
// to a differently-loaded successor, (1) acknowledge the disturbance,
// (2) re-enter its transient search phase, and (3) re-converge to steady
// state on the successor's regime before the transfer ends.
func TestFailoverScenarioReconverges(t *testing.T) {
	for _, sc := range FailoverScenarios(7) {
		t.Run(sc.Name, func(t *testing.T) {
			res := RunFailover(sc, hybridFor(t, 7), Options{})
			if !res.Disturbed {
				t.Fatal("controller did not acknowledge the failover disturbance")
			}
			if res.PhaseAtKill != "steady" {
				t.Fatalf("controller phase at kill = %q; the scenario must kill a CONVERGED session (raise KillAtBlock)", res.PhaseAtKill)
			}
			if res.PreKillSteadyBlocks == 0 {
				t.Fatal("no steady-state blocks before the kill")
			}
			if !res.ReenteredTransient {
				t.Fatal("controller never re-entered the transient phase after the failover")
			}
			if res.ReconvergedAtBlock < 0 {
				t.Fatalf("controller never re-converged on the successor regime within %d blocks", sc.Blocks)
			}
			if res.ReconvergedAtBlock <= sc.KillAtBlock {
				t.Fatalf("re-convergence block %d precedes the kill at %d", res.ReconvergedAtBlock, sc.KillAtBlock)
			}
			// Sanity: the transfer covered every block and the trajectory
			// was recorded block by block.
			if res.Blocks != sc.Blocks || len(res.Sizes) != sc.Blocks {
				t.Fatalf("trajectory has %d/%d blocks", res.Blocks, len(res.Sizes))
			}
		})
	}
}

// TestFailoverDeterministic checks the scenario is replayable: same
// seeds, same trajectory — the property that makes the failover gate a
// gate rather than a flake.
func TestFailoverDeterministic(t *testing.T) {
	run := func() FailoverResult {
		sc := FailoverScenarios(11)[1]
		return RunFailover(sc, hybridFor(t, 11), Options{})
	}
	a, b := run(), run()
	if a.TotalMS != b.TotalMS || a.ReconvergedAtBlock != b.ReconvergedAtBlock {
		t.Fatalf("two identical runs diverged: totals %g vs %g, reconverged %d vs %d",
			a.TotalMS, b.TotalMS, a.ReconvergedAtBlock, b.ReconvergedAtBlock)
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			t.Fatalf("size trajectories diverge at block %d: %d vs %d", i, a.Sizes[i], b.Sizes[i])
		}
	}
}

// TestFailoverWithoutDisturbableController: a static controller has no
// Disturb; the scenario must still run and report Disturbed=false.
func TestFailoverWithoutDisturbableController(t *testing.T) {
	sc := FailoverScenarios(3)[0]
	res := RunFailover(sc, core.NewStatic(1000), Options{})
	if res.Disturbed {
		t.Fatal("static controller cannot acknowledge disturbances")
	}
	if res.Blocks != sc.Blocks {
		t.Fatalf("ran %d blocks, want %d", res.Blocks, sc.Blocks)
	}
}
