package main

import (
	"flag"
	"fmt"
	"time"

	"wsopt/internal/daemon"
	"wsopt/internal/profile"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// words is wsblockd's wording of the flag group it shares with wsgate.
var words = daemon.Wording{
	Name:        "wsblockd",
	Addr:        ":8080",
	MetricsAddr: "serve /metrics, /healthz, and /debug/pprof on this address (empty = disabled)",
	MaxSessions: "admission control: refuse new sessions with 503 + Retry-After beyond this many open cursors (0 = unlimited)",
	RetryAfter:  "base Retry-After hint sent with admission-control 503s (scaled by regulator pressure)",
	SessionTTL:  "expire sessions idle longer than this",
	SLO:         "SLO regulation: hold the p95 block-serve time at this many milliseconds by actuating the session limit (0 = static -max-sessions)",
	Admission:   "admission control",
	Regulation:  "SLO regulation",
	Pprof:       true,
}

// options holds every flag value. The shared group (listener, metrics
// plane, admission, SLO regulation, session TTL) is the chassis's; the
// rest is wsblockd's own: data, cost model, faults, replication, push and
// the block cache.
type options struct {
	*daemon.Flags

	sf        float64
	codec     wire.Codec
	conf      string
	timescale float64
	loadLive  bool

	faults    service.FaultConfig
	faultSeed int64

	replicate int

	pushWindow   int
	pushMaxFrame int

	cacheMemBytes int64
}

// parseOptions defines the flags on fs, parses args and validates the
// result; nothing in it exits the process. A flag-syntax error (and -h,
// as flag.ErrHelp) comes back as fs.Parse reported it.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{Flags: daemon.Register(fs, words)}
	fs.Float64Var(&o.sf, "sf", 0.1, "TPC-H scale factor (1 = 150K customers, 450K orders)")
	codec := fs.String("codec", "xml", "block codec: xml or binary, each optionally +gzip (e.g. xml+gzip)")
	fs.StringVar(&o.conf, "conf", "", "inject delays from a calibrated profile (conf1.1 .. conf2.2)")
	fs.Float64Var(&o.timescale, "timescale", 0.001, "real milliseconds slept per simulated millisecond")
	fs.BoolVar(&o.loadLive, "load-live", false, "couple the injected-delay model to the live session count (each extra open session adds one concurrent query to the simulated load)")

	fs.Float64Var(&o.faults.DropProb, "fault-drop", 0, "chaos: probability of severing the connection after a block is processed")
	fs.Float64Var(&o.faults.TruncateProb, "fault-truncate", 0, "chaos: probability of truncating a block response body")
	fs.Float64Var(&o.faults.Error503Prob, "fault-503", 0, "chaos: probability of refusing a block request with 503")
	fs.Int64Var(&o.faultSeed, "fault-seed", 0, "chaos: fault RNG seed (0 = derive from clock)")

	fs.IntVar(&o.replicate, "replicate", 0, "replication: retain this many session-mutation records in the log served at GET /replication/feed for follower shipping (0 = disabled)")

	fs.IntVar(&o.pushWindow, "push-window", 0, "push: cap the credit window a client may grant, in frames, announced on every stream open (0 = default 1024; memory is bounded by -push-max-frame)")
	fs.IntVar(&o.pushMaxFrame, "push-max-frame", 0, "push: cap one frame's encoded payload in bytes; twice it is each stream's budget of unacked bytes (0 = default 8 MiB)")

	fs.Int64Var(&o.cacheMemBytes, "cache-mem-bytes", 0, "cache: hold up to this many bytes of encoded blocks in memory, content-addressed by plan+cursor+codec+dataset version (0 = disabled)")

	err := fs.Parse(args)
	if err != nil {
		return nil, err
	}
	if o.codec, err = wire.ByName(*codec); err != nil {
		return o, fmt.Errorf("-codec: %w", err)
	}
	return o, o.validate()
}

// validate fails fast, before any data generation, on settings the
// daemon would otherwise discover only deep into startup — or, worse,
// silently run with (a negative replication capacity panics inside the
// ring). Every error names the flag at fault.
func (o *options) validate() error {
	if err := o.Flags.Validate(); err != nil {
		return err
	}
	if o.timescale < 0 {
		return fmt.Errorf("-timescale must be >= 0, got %g", o.timescale)
	}
	if o.conf != "" {
		if _, err := profile.SpecByName(o.conf); err != nil {
			return fmt.Errorf("-conf: %w", err)
		}
	}
	if err := o.faults.Validate(); err != nil {
		return fmt.Errorf("-fault-drop, -fault-truncate, -fault-503: %w", err)
	}
	if o.replicate < 0 {
		return fmt.Errorf("-replicate must be >= 0, got %d", o.replicate)
	}
	if o.cacheMemBytes < 0 {
		return fmt.Errorf("-cache-mem-bytes must be >= 0, got %d", o.cacheMemBytes)
	}
	if o.pushWindow < 0 {
		return fmt.Errorf("-push-window must be >= 0, got %d", o.pushWindow)
	}
	if o.pushMaxFrame < 0 {
		return fmt.Errorf("-push-max-frame must be >= 0, got %d", o.pushMaxFrame)
	}
	if o.pushMaxFrame > wire.MaxFramePayload {
		return fmt.Errorf("-push-max-frame %d exceeds the wire frame limit %d", o.pushMaxFrame, wire.MaxFramePayload)
	}
	return nil
}

// seed is the delay-noise and fault RNG seed: -fault-seed, or the clock.
func (o *options) seed() int64 {
	if o.faultSeed != 0 {
		return o.faultSeed
	}
	return time.Now().UnixNano()
}
