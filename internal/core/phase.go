package core

import (
	"math"

	"wsopt/internal/metrics"
)

// phase labels a switching controller's operating regime.
type phase int

const (
	phaseTransient phase = iota // constant-gain stepping toward the optimum
	phaseSteady                 // adaptive-gain fine tuning around it
)

func (p phase) String() string {
	if p == phaseSteady {
		return "steady"
	}
	return "transient"
}

// phaseMachine is the hybrid scheme's phase logic, the one copy both
// engines (extremum and VectorController) embed: the step counter, the
// history of sign(Δy·Δx) that Eq. 5 examines, the anchored periodic
// reset, the transition count and Eq. 4's gain clamp. What an engine does
// around a transition (the scalar one parks at the saw-tooth centre and
// has Eq. 6 and the switch-back beside Eq. 5) stays with the engine.
type phaseMachine struct {
	window      int // n' of Eq. 5
	threshold   int // s of Eq. 5
	resetPeriod int // steps in steady state before a forced re-search; 0 = never
	ctr         *metrics.Counter

	ph           phase
	justSwitched bool      // first adaptivity step after entering steady state
	signHist     []float64 // last window values of sign(Δy·Δx)
	steps        int       // adaptivity steps taken
	phaseStep    int       // steps at which the current phase was entered
	switches     int       // transient<->steady transitions
}

func newPhaseMachine(window, threshold, resetPeriod int, reg *metrics.Registry) phaseMachine {
	m := phaseMachine{window: window, threshold: threshold, resetPeriod: resetPeriod}
	if reg != nil {
		m.ctr = reg.Counter("wsopt_core_phase_transitions_total",
			"Transient<->steady phase transitions across all switching controllers.")
	}
	return m
}

func (m *phaseMachine) pushSign(sg float64) {
	m.signHist = append(m.signHist, sg)
	if len(m.signHist) > m.window {
		m.signHist = m.signHist[len(m.signHist)-m.window:]
	}
}

// balanced is Eq. 5: the signs of Δy·Δx over the last n' steps cancel
// (|Σ sign| <= s) — the constant-gain search oscillates around the
// optimum in a saw-tooth manner, flipping direction (almost) every step.
func (m *phaseMachine) balanced() bool {
	return len(m.signHist) >= m.window && math.Abs(sum(m.signHist)) <= float64(m.threshold)
}

// resetDue is the periodic reset that kicks a converged controller back
// into searching (Fig. 8's long-lived queries). The period is counted
// from the moment steady state was entered, never from an absolute step
// count: firing on steps%resetPeriod while still transient would keep
// clearing signHist and, whenever resetPeriod <= window, make
// steady-state detection impossible.
func (m *phaseMachine) resetDue() bool {
	return m.resetPeriod > 0 && m.ph == phaseSteady && m.steps-m.phaseStep >= m.resetPeriod
}

func (m *phaseMachine) enterSteady() {
	m.ph = phaseSteady
	m.phaseStep = m.steps
	m.justSwitched = true
	m.countSwitch()
}

// enterTransient (re)starts the search with an empty sign history. It
// counts a transition only when it leaves steady state.
func (m *phaseMachine) enterTransient() {
	if m.ph == phaseSteady {
		m.countSwitch()
	}
	m.ph = phaseTransient
	m.phaseStep = m.steps
	m.justSwitched = false
	m.signHist = m.signHist[:0]
}

func (m *phaseMachine) countSwitch() {
	m.switches++
	if m.ctr != nil {
		m.ctr.Inc()
	}
}

// clampGain is Eq. 4: the constant gain b1 in the transient phase and the
// adaptive gain in steady state, where it must never out-step the
// transient policy it replaced. The hand-off step holds position: the
// last Δx still has the transient's magnitude b1, which combined with
// measurement noise would fire one large, randomly directed adaptive
// step; the dither restarts probing at its own small scale.
func (m *phaseMachine) clampGain(b1, adaptive float64) float64 {
	switch {
	case m.ph != phaseSteady:
		return b1
	case m.justSwitched:
		m.justSwitched = false
		return 0
	case adaptive < b1:
		return adaptive
	}
	return b1
}

// reset returns the machine to its freshly constructed state.
func (m *phaseMachine) reset() {
	*m = phaseMachine{window: m.window, threshold: m.threshold, resetPeriod: m.resetPeriod, ctr: m.ctr, signHist: m.signHist[:0]}
}

// Steps returns the number of adaptivity steps taken so far.
func (m *phaseMachine) Steps() int { return m.steps }

// InSteadyState reports whether the adaptive gain of the hybrid scheme is
// active. It is always false for the gain laws that have one phase.
func (m *phaseMachine) InSteadyState() bool { return m.ph == phaseSteady }

// PhaseSwitches returns how many transient<->steady transitions occurred.
func (m *phaseMachine) PhaseSwitches() int { return m.switches }
