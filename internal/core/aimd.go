package core

import "fmt"

// AIMD is the additive-increase / multiplicative-decrease linear
// controller, the TCP congestion-control scheme the paper cites when
// discussing linear models ("recall the AIMD scheme adopted in TCP/IP",
// Section III-B): when the last move improved the per-tuple cost the
// block size grows by a fixed increment, when it degraded it is cut by a
// multiplicative factor. "Improvement" is the extremum schemes' own sign
// test, so it is their fourth law (lawAIMD), beside the constant-gain
// (AIAD-like), adaptive and hybrid ones.
type AIMD struct{ extremum }

// AIMDConfig parameterizes the AIMD controller.
type AIMDConfig struct {
	// InitialSize is the first block's size.
	InitialSize int
	// Increase is the additive step applied after an improving move.
	Increase float64
	// Decrease is the multiplicative factor applied after a degrading
	// move, in (0, 1); e.g. 0.5 halves the block size.
	Decrease float64
	// Limits bound every decision.
	Limits Limits
	// AvgHorizon is the per-block averaging window before one step.
	AvgHorizon int
	// DitherFactor optionally adds the Gaussian probe signal.
	DitherFactor float64
	// Seed seeds the dither RNG.
	Seed int64
}

// NewAIMD builds the controller.
func NewAIMD(cfg AIMDConfig) (*AIMD, error) {
	if cfg.Increase <= 0 {
		return nil, fmt.Errorf("core: AIMD increase %g must be positive", cfg.Increase)
	}
	if cfg.Decrease <= 0 || cfg.Decrease >= 1 {
		return nil, fmt.Errorf("core: AIMD decrease %g must be in (0, 1)", cfg.Decrease)
	}
	e, err := newExtremum(Config{
		InitialSize:     cfg.InitialSize,
		Limits:          cfg.Limits,
		B1:              cfg.Increase,
		DitherFactor:    cfg.DitherFactor,
		AvgHorizon:      cfg.AvgHorizon,
		CriterionWindow: 1, // unused by this law; Validate wants it positive
		Seed:            cfg.Seed,
	}, lawAIMD)
	if err != nil {
		return nil, err
	}
	e.decrease = cfg.Decrease
	return &AIMD{extremum: *e}, nil
}

// Name implements Controller.
func (a *AIMD) Name() string { return "aimd" }
