package sysid

import (
	"fmt"

	"wsopt/internal/core"
)

// VectorColdStart is the Section-IV fallback for a vector run with no
// usable profile on record: the first rounds execute the 6-sample
// identification sweep over the size dimension (at the controller's
// initial stream count and pipeline depth), fit the quadratic/parabolic
// model, and warm-start the vector controller at the fitted optimum.
// From then on every call is forwarded to the wrapped controller.
//
// It is a core.Controller with a Vector of its own (the sweep's probe
// point while identifying), so any runner drives it through
// core.VectorOf; the wrapped controller's phase and disturbance reaction
// are reached through Unwrap.
type VectorColdStart struct {
	ctl    *core.VectorController
	limits core.Limits
	plan   []int
	idx    int
	xs, ys []float64
	done   bool
	fitted int // the size the identification decided on (0 = fallback)
}

// NewVectorColdStart wraps ctl. samples <= 0 means DefaultSampleCount.
// The sweep spans the controller's size limits.
func NewVectorColdStart(ctl *core.VectorController, limits core.Limits, samples int) (*VectorColdStart, error) {
	if ctl == nil {
		return nil, fmt.Errorf("sysid: cold start needs a controller")
	}
	if samples <= 0 {
		samples = DefaultSampleCount
	}
	plan, err := SamplePlan(limits, samples)
	if err != nil {
		return nil, err
	}
	return &VectorColdStart{ctl: ctl, limits: limits, plan: plan}, nil
}

// Vector returns the sweep's current probe point during identification
// and the wrapped controller's vector afterwards.
func (c *VectorColdStart) Vector() core.Vector {
	if c.done {
		return c.ctl.Vector()
	}
	v := c.ctl.Vector()
	v.Size = c.plan[c.idx]
	return v
}

// Size implements core.Controller.
func (c *VectorColdStart) Size() int { return c.Vector().Size }

// Observe consumes one per-tuple measurement: identification samples
// first, then the wrapped controller's regular feedback.
func (c *VectorColdStart) Observe(y float64) {
	if c.done {
		c.ctl.Observe(y)
		return
	}
	c.xs = append(c.xs, float64(c.plan[c.idx]))
	c.ys = append(c.ys, y)
	c.idx++
	if c.idx < len(c.plan) {
		return
	}
	c.decide()
}

func (c *VectorColdStart) decide() {
	c.done = true
	start := c.ctl.Vector()
	model, err := FitBest(c.xs, c.ys, c.limits)
	if err == nil {
		if opt, ok := model.Optimum(c.limits); ok {
			c.fitted = c.limits.Clamp(int(opt + 0.5))
			start.Size = c.fitted
		}
	}
	// A failed or degenerate fit leaves the controller's own initial size
	// — the paper's lower-limit fallback is deliberately not copied here,
	// since the vector search recovers from a bad start anyway.
	c.ctl.WarmStart(start)
}

// Name identifies the scheme in reports.
func (c *VectorColdStart) Name() string { return "vector-cold-start" }

// Done reports whether identification has finished.
func (c *VectorColdStart) Done() bool { return c.done }

// FittedSize returns the size the sweep decided on, or 0 when the fit was
// unusable.
func (c *VectorColdStart) FittedSize() int { return c.fitted }

// Unwrap returns the wrapped vector controller.
func (c *VectorColdStart) Unwrap() core.Controller { return c.ctl }

// HoldsSize implements core.HoldsSize's capability: it does not promise,
// since its sweep walks sizes before it hands over.
func (c *VectorColdStart) HoldsSize() bool { return false }
