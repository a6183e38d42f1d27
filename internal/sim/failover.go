package sim

import (
	"math"

	"wsopt/internal/core"
	"wsopt/internal/profile"
)

// FailoverScenario is a deterministic mid-transfer failover: the session
// runs against the primary's cost regime, the primary is killed at a
// known block, and the transfer continues — transparently, with no lost
// or duplicated work — against the successor's regime. It is the
// simulation twin of the wsgate chaos gate: the client sees only a
// disturbance notification (the X-WSGate-Failovers delta surfaced by
// the gateway), while the cost of every subsequent block is priced by a
// different replica.
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
