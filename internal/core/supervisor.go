package core

import (
	"fmt"
	"math"

	"wsopt/internal/metrics"
)

// Supervisor implements the supervisory-control pattern the paper's
// related work describes: "switch between a number of controllers
// dynamically when moving from one operating regime to another and there
// is no single controller to provide satisfactory performance. The
// switching is orchestrated by a supervisor implementing a specially
// designed logic that uses measurements collected online."
//
// The logic here: the active controller runs; the supervisor tracks the
// windowed mean of the performance metric. The best window ever seen is
// the reference. When the recent window degrades beyond
// DegradeFactor times the reference for a full window, the supervisor
// fails over to the next controller in the bank (resetting it if
// possible) and re-baselines. A bank of one controller never switches.
type Supervisor struct {
	bank   []Controller
	cfg    SupervisorConfig
	active int

	window   []float64
	best     float64
	switches int
	steps    int

	failoverCtr *metrics.Counter
	activeGauge *metrics.Gauge
}

// SupervisorConfig parameterizes the switching logic.
type SupervisorConfig struct {
	// Window is the number of measurements per evaluation window
	// (default 12).
	Window int
	// DegradeFactor triggers a failover when the recent window's mean
	// exceeds best·DegradeFactor (default 1.8).
	DegradeFactor float64
	// WarmupWindows delays judgement after a switch so the incoming
	// controller's transient is not punished (default 2 windows).
	WarmupWindows int
	// Metrics, when non-nil, receives the failover counter
	// (wsopt_core_supervisor_failovers_total) and the active-controller
	// index gauge (wsopt_core_supervisor_active).
	Metrics *metrics.Registry
}

// NewSupervisor builds a supervisor over a non-empty bank of controllers.
// The first controller starts active.
func NewSupervisor(bank []Controller, cfg SupervisorConfig) (*Supervisor, error) {
	if len(bank) == 0 {
		return nil, fmt.Errorf("core: supervisor needs at least one controller")
	}
	for i, c := range bank {
		if c == nil {
			return nil, fmt.Errorf("core: supervisor bank entry %d is nil", i)
		}
	}
	if cfg.Window < 1 {
		cfg.Window = 12
	}
	if cfg.DegradeFactor == 0 {
		cfg.DegradeFactor = 1.8
	}
	if cfg.DegradeFactor <= 1 {
		return nil, fmt.Errorf("core: degrade factor %g must exceed 1", cfg.DegradeFactor)
	}
	if cfg.WarmupWindows < 0 {
		return nil, fmt.Errorf("core: warmup windows %d must be non-negative", cfg.WarmupWindows)
	}
	if cfg.WarmupWindows == 0 {
		cfg.WarmupWindows = 2
	}
	s := &Supervisor{bank: bank, cfg: cfg, best: math.Inf(1)}
	if cfg.Metrics != nil {
		s.failoverCtr = cfg.Metrics.Counter("wsopt_core_supervisor_failovers_total",
			"Supervisor failovers to the next controller in the bank.")
		s.activeGauge = cfg.Metrics.Gauge("wsopt_core_supervisor_active",
			"Index of the currently active controller in the supervisor's bank.")
	}
	return s, nil
}

// Size implements Controller.
func (s *Supervisor) Size() int { return s.bank[s.active].Size() }

// Observe implements Controller.
func (s *Supervisor) Observe(y float64) {
	s.bank[s.active].Observe(y)
	if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
		return
	}
	s.steps++
	s.window = append(s.window, y)
	if len(s.window) < s.cfg.Window {
		return
	}
	m := mean(s.window)
	s.window = s.window[:0]

	warmup := s.cfg.WarmupWindows * s.cfg.Window
	inWarmup := s.steps <= warmup
	if m < s.best {
		s.best = m
	}
	if inWarmup {
		return
	}
	if m > s.best*s.cfg.DegradeFactor {
		s.failover()
	}
}

// failover activates the next controller in the bank and re-baselines.
func (s *Supervisor) failover() {
	s.active = (s.active + 1) % len(s.bank)
	if r, ok := s.bank[s.active].(Resetter); ok {
		r.Reset()
	}
	s.best = math.Inf(1)
	s.steps = 0 // restart the warmup for the incoming controller
	s.switches++
	if s.failoverCtr != nil {
		s.failoverCtr.Inc()
		s.activeGauge.Set(float64(s.active))
	}
}

// Disturb implements Disturber: the environment changed underneath the
// active controller (e.g. a session failover moved the query to another
// replica), so the reference performance is stale. The supervisor
// re-baselines — best is cleared and the warmup restarts, preventing a
// spurious failover against a reference measured on the old replica.
// NotifyDisturbance goes on to the active controller through Unwrap.
func (s *Supervisor) Disturb() {
	s.window = s.window[:0]
	s.best = math.Inf(1)
	s.steps = 0
}

// Unwrap returns the active controller: the one whose phase, vector and
// disturbance reaction are the supervisor's at this moment.
func (s *Supervisor) Unwrap() Controller { return s.bank[s.active] }

// HoldsSize implements HoldsSize's capability: it does not promise,
// since a failover hands the next pull to another controller, whatever
// the active one holds.
func (s *Supervisor) HoldsSize() bool { return false }

// Name implements Controller.
func (s *Supervisor) Name() string {
	return "supervisor(" + s.bank[s.active].Name() + ")"
}

// Active returns the index of the currently active controller.
func (s *Supervisor) Active() int { return s.active }

// Switches returns how many failovers occurred.
func (s *Supervisor) Switches() int { return s.switches }

// Reset implements Resetter: back to the first controller, all state
// cleared.
func (s *Supervisor) Reset() {
	for _, c := range s.bank {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
	s.active = 0
	s.window = s.window[:0]
	s.best = math.Inf(1)
	s.switches = 0
	s.steps = 0
}
