package main

import (
	"fmt"

	"wsopt/internal/core"
)

// options holds the flag values whose bad combinations would otherwise
// surface as a confusing mid-query failure (a credit window of zero
// grants nothing and the stream would sit stalled forever; a window
// without -push silently does nothing; a named controller that
// -streams would silently replace), plus the controller's tuning.
// validate fails fast, before a session is opened.
type options struct {
	push       bool
	pushWindow int

	controller    string // -controller; validate resolves it to "vector" when -streams/-pipeline-depth ask for that
	controllerSet bool   // -controller was given, not defaulted
	streams       int
	pipeDepth     int

	size      int
	b1, b2    float64
	limitsArg string      // -limits lo:hi
	limits    core.Limits // limitsArg, parsed by validate
}

func (o *options) validate() error {
	if o.pushWindow < 0 {
		return fmt.Errorf("-push-window must be >= 0, got %d", o.pushWindow)
	}
	if !o.push && o.pushWindow > 0 {
		return fmt.Errorf("-push-window is meaningless without -push")
	}
	if _, err := fmt.Sscanf(o.limitsArg, "%d:%d", &o.limits.Min, &o.limits.Max); err != nil {
		return fmt.Errorf("bad -limits %q: %v", o.limitsArg, err)
	}
	if o.streams > 1 || o.pipeDepth > 1 {
		// Only the vector controller commands more than one stream at
		// depth 1. Unnamed, it is what these flags select; a controller
		// the user named is not replaced behind their back.
		if o.controllerSet && o.controller != "vector" {
			return fmt.Errorf("-controller %s drives one stream at depth 1: drop -streams/-pipeline-depth above 1, or use -controller vector", o.controller)
		}
		o.controller = "vector"
	}
	return nil
}
