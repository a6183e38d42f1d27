package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/resilience"
	"wsopt/internal/sysid"
	"wsopt/internal/wire"
)

// options holds every flag value. A bad one would otherwise surface as a
// confusing mid-query failure or, worse, run in silence (a credit window
// of zero grants nothing and the stream would sit stalled forever; a
// window without -push silently does nothing; a named controller that
// -streams would silently replace; a -profile-store on a scalar run is
// neither read nor written; -size 0 under a static controller pulls the
// relation one tuple at a time). validate fails fast, before a session is
// opened.
type options struct {
	url, table, columns, where string
	endpoints                  string   // -endpoints, as given
	urls                       []string // the replicas to use: -endpoints, else -url; set by validate
	codecName                  string
	codec                      wire.Codec // codecName, resolved by validate

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

	useInjected bool
	trace       bool
	eventsOut   string
	metricsOut  string

	retry    client.RetryPolicy
	breaker  resilience.BreakerConfig
	deadline resilience.DeadlineConfig

	profileStore string
	chunkTuples  int
	workload     sysid.WorkloadDescriptor
	vectorFlags  []string // the vector-only flags given (-profile-store, -chunk-tuples, -workload-*), by name
}

// parseOptions defines the flags on fs, parses args and validates the
// result; nothing in it exits the process. A flag-syntax error (and -h,
// as flag.ErrHelp) comes back as fs.Parse reported it.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.url, "url", "http://localhost:8080", "service base URL")
	fs.StringVar(&o.table, "table", "customer", "relation to scan")
	fs.StringVar(&o.columns, "columns", "", "comma-separated projection (default: all)")
	fs.StringVar(&o.where, "where", "", "SQL-flavoured filter, e.g. \"c_acctbal > 1000 AND c_mktsegment = 'BUILDING'\"")
	fs.StringVar(&o.codecName, "codec", "xml", "block codec: xml or binary, each optionally +gzip (must match the server: nothing is negotiated)")
	fs.StringVar(&o.controller, "controller", "hybrid", "static | constant | adaptive | hybrid | hybrid-s | aimd | mimd | model-quadratic | model-parabolic | self-tuning | setpoint | supervisor | vector")
	fs.IntVar(&o.size, "size", 1000, "initial (or static) block size")
	fs.Float64Var(&o.b1, "b1", 2000, "constant gain")
	fs.Float64Var(&o.b2, "b2", 25, "adaptive gain coefficient")
	fs.StringVar(&o.limitsArg, "limits", "100:20000", "block-size limits lo:hi")
	fs.BoolVar(&o.useInjected, "simtime", true, "observe server-injected simulated delays instead of wall time")
	fs.BoolVar(&o.trace, "trace", false, "print each block decision")
	fs.StringVar(&o.eventsOut, "events", "", "write a JSONL structured trace (one event per block) to this file")
	fs.IntVar(&o.retry.MaxAttempts, "retries", 5, "attempts per request; block transfers replay safely via the seq protocol (1 = no retry)")
	fs.DurationVar(&o.retry.BaseDelay, "retry-base", 50*time.Millisecond, "first retry backoff (doubles per attempt, full jitter)")

	fs.BoolVar(&o.push, "push", false, "use the server-push streaming transport: one long-lived stream per session, flow-controlled by credit grants")
	fs.IntVar(&o.pushWindow, "push-window", 0, "push: pin the credit window, in blocks (0 = the largest the server announces it applies, which also bounds a pinned one; vector runs let the controller drive it)")

	fs.IntVar(&o.streams, "streams", 1, "max parallel streams; >1 (or -controller vector) runs the multi-dimensional vector controller")
	fs.IntVar(&o.pipeDepth, "pipeline-depth", 1, "max per-stream pipeline depth (blocks in flight ahead of processing; vector runs only)")
	fs.StringVar(&o.profileStore, "profile-store", "", "JSON profile store; warm-starts the vector controller from the nearest stored workload optimum and records this run's outcome (vector runs only)")
	fs.IntVar(&o.chunkTuples, "chunk-tuples", 4096, "cursor-range lease size per stream chunk (vector runs only)")
	fs.IntVar(&o.workload.TupleBytes, "workload-bytes", 0, "average tuple width of the workload, for profile-store matching (0 = unknown; vector runs only)")
	fs.Float64Var(&o.workload.ScaleFactor, "workload-sf", 0, "dataset scale factor of the workload, for profile-store matching (0 = unknown; vector runs only)")

	fs.StringVar(&o.endpoints, "endpoints", "", "comma-separated replica base URLs (overrides -url; enables failover)")
	fs.IntVar(&o.breaker.FailureThreshold, "breaker-threshold", 5, "consecutive failures before an endpoint's circuit breaker opens")
	fs.DurationVar(&o.breaker.Cooldown, "breaker-cooldown", 5*time.Second, "how long an open breaker refuses traffic before probing")
	fs.Float64Var(&o.deadline.Multiplier, "deadline-mult", 4, "adaptive deadline = mult x p95 per-tuple RTT x block size")
	fs.DurationVar(&o.deadline.Min, "deadline-min", time.Second, "lower clamp on the adaptive per-block deadline")
	fs.DurationVar(&o.deadline.Max, "deadline-max", 2*time.Minute, "upper clamp on (and fallback for) the adaptive deadline")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the client's metrics (Prometheus text) to this file at exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "controller":
			o.controllerSet = true
		case "profile-store", "chunk-tuples", "workload-bytes", "workload-sf":
			o.vectorFlags = append(o.vectorFlags, f.Name)
		}
	})
	return o, o.validate()
}

// validate checks the flag values against each other and resolves the
// ones that name something (-codec, -endpoints, -limits, the controller
// -streams selects). Every error names the flag at fault.
func (o *options) validate() (err error) {
	if o.codec, err = wire.ByName(o.codecName); err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	o.urls = []string{o.url}
	if o.endpoints != "" {
		o.urls = nil
		for _, u := range strings.Split(o.endpoints, ",") {
			if u = strings.TrimSpace(u); u != "" {
				o.urls = append(o.urls, u)
			}
		}
	}
	_, limitsErr := fmt.Sscanf(o.limitsArg, "%d:%d", &o.limits.Min, &o.limits.Max)
	// The first check that fails is the error.
	check := func(ok bool, format string, args ...any) {
		if err == nil && !ok {
			err = fmt.Errorf(format, args...)
		}
	}
	check(len(o.urls) > 0, "-endpoints %q names no URL", o.endpoints)
	check(o.size >= 1, "-size must be at least 1, got %d", o.size)
	check(o.retry.MaxAttempts >= 1, "-retries must be at least 1, got %d", o.retry.MaxAttempts)
	check(o.retry.BaseDelay > 0, "-retry-base must be positive, got %s", o.retry.BaseDelay)
	check(o.streams >= 1, "-streams must be at least 1, got %d", o.streams)
	check(o.pipeDepth >= 1, "-pipeline-depth must be at least 1, got %d", o.pipeDepth)
	check(o.chunkTuples >= 1, "-chunk-tuples must be at least 1, got %d", o.chunkTuples)
	check(o.breaker.FailureThreshold >= 1, "-breaker-threshold must be at least 1, got %d", o.breaker.FailureThreshold)
	check(o.breaker.Cooldown > 0, "-breaker-cooldown must be positive, got %s", o.breaker.Cooldown)
	check(o.deadline.Multiplier > 0, "-deadline-mult must be positive, got %g", o.deadline.Multiplier)
	check(o.deadline.Min > 0, "-deadline-min must be positive, got %s", o.deadline.Min)
	check(o.deadline.Max >= o.deadline.Min, "-deadline-max %s is below -deadline-min %s", o.deadline.Max, o.deadline.Min)
	check(o.pushWindow >= 0, "-push-window must be >= 0, got %d", o.pushWindow)
	check(o.push || o.pushWindow == 0, "-push-window is meaningless without -push")
	check(limitsErr == nil, "bad -limits %q: %v", o.limitsArg, limitsErr)
	check(1 <= o.limits.Min && o.limits.Min <= o.limits.Max, "bad -limits %q: want 1 <= lo <= hi", o.limitsArg)
	if err == nil && (o.streams > 1 || o.pipeDepth > 1) {
		// Only the vector controller commands more than one stream at
		// depth 1. Unnamed, it is what these flags select; a controller
		// the user named is not replaced behind their back.
		if o.controllerSet && o.controller != "vector" {
			return fmt.Errorf("-controller %s drives one stream at depth 1: drop -streams/-pipeline-depth above 1, or use -controller vector", o.controller)
		}
		o.controller = "vector"
	}
	if err == nil && o.controller != "vector" && len(o.vectorFlags) > 0 {
		// Only the vector runner reads these; any other run would accept
		// and ignore them.
		return fmt.Errorf("-%s: vector runs only (add -controller vector or -streams above 1)", strings.Join(o.vectorFlags, ", -"))
	}
	return err
}
