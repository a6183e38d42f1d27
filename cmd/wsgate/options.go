package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"wsopt/internal/daemon"
	"wsopt/internal/resilience"
)

// words is wsgate's wording of the flag group it shares with wsblockd.
var words = daemon.Wording{
	Name:        "wsgate",
	Addr:        ":8079",
	MetricsAddr: "serve aggregate /metrics and /healthz on this address (empty = disabled)",
	MaxSessions: "edge admission: refuse new sessions with 503 + Retry-After beyond this many open sessions (0 = unlimited)",
	RetryAfter:  "base Retry-After hint sent with edge-admission 503s (scaled by regulator pressure)",
	SessionTTL:  "expire gateway sessions idle longer than this, releasing their admission slots",
	SLO:         "SLO regulation: hold the fleet-wide p95 block-serve time at this many milliseconds by actuating the edge session limit (0 = static -max-sessions)",
	Admission:   "edge admission",
	Regulation:  "fleet SLO regulation",
}

// options holds every flag value. The shared group (listener, metrics
// plane, edge admission, SLO regulation, session TTL) is the chassis's;
// the rest is wsgate's own: the backends, replication polling and circuit
// breakers.
type options struct {
	*daemon.Flags

	backends     []string
	pullInterval time.Duration
	breaker      resilience.BreakerConfig
}

// parseOptions defines the flags on fs, parses args and validates the
// result; nothing in it exits the process. A flag-syntax error (and -h,
// as flag.ErrHelp) comes back as fs.Parse reported it.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{Flags: daemon.Register(fs, words)}
	backends := fs.String("backends", "", "comma-separated wsblockd base URLs (required)")
	fs.DurationVar(&o.pullInterval, "pull-interval", 25*time.Millisecond, "replication poll period per backend")
	fs.IntVar(&o.breaker.FailureThreshold, "breaker-failures", 5, "consecutive failures that open a backend's circuit breaker")
	fs.DurationVar(&o.breaker.Cooldown, "breaker-cooldown", 2*time.Second, "how long an open breaker refuses a backend before a half-open probe")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			o.backends = append(o.backends, strings.TrimRight(b, "/"))
		}
	}
	return o, o.validate()
}

// validate fails fast, before any backend is contacted, on settings that
// would otherwise slip into the gateway's timers (a zero pull interval
// spins the replication puller flat-out). Every error names the flag at
// fault.
func (o *options) validate() error {
	if err := o.Flags.Validate(); err != nil {
		return err
	}
	if len(o.backends) == 0 {
		return fmt.Errorf("need -backends with at least one wsblockd URL")
	}
	if o.pullInterval <= 0 {
		return fmt.Errorf("-pull-interval must be positive, got %s", o.pullInterval)
	}
	if o.breaker.FailureThreshold <= 0 {
		return fmt.Errorf("-breaker-failures must be positive, got %d", o.breaker.FailureThreshold)
	}
	if o.breaker.Cooldown <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive, got %s", o.breaker.Cooldown)
	}
	return nil
}
