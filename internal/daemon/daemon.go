// Package daemon is the operational chassis under cmd/wsblockd and
// cmd/wsgate. Both tiers expose the same surface (a handler, an idle
// sweep, a block-serve histogram, the regulator's two actuators), so what
// it takes to run one as a process exists once, here: the flag group the
// two commands share, validated in one place; the listener with its
// slow-peer bounds; the -metrics-addr plane; the SLO regulator and its
// ceiling defaulting; the admission announce; the idle-session janitor;
// the stdout announce lines and graceful shutdown. Each command keeps
// only what is its own and hands the chassis its Tier.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/regulator"
)

// Slow-peer bounds on both listeners: how long a connection may take to
// send its request headers, and how long an idle keep-alive connection is
// kept. No WriteTimeout — it would cut long-lived push streams; every
// block write carries its own deadline instead (service.serveBlock).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownGrace is how long in-flight block transfers get to finish
	// after SIGINT/SIGTERM.
	shutdownGrace = 10 * time.Second
)

// Tier is what the chassis runs; *service.Server and *gateway.Gateway
// both are one.
type Tier interface {
	Handler() http.Handler
	// ExpireIdle drops sessions idle past the tier's TTL as of now and
	// reports how many.
	ExpireIdle(now time.Time) int
	// BlockServeSnapshot is the regulator's measured variable.
	BlockServeSnapshot() metrics.HistogramSnapshot
	// Sink is the regulator's actuated variable: the admission ceiling and
	// the delay-pricing pressure.
	regulator.Sink
}

// Wording is how one command words what it shares with the other: its
// name, the default of -addr, the help text of the shared flags whose
// meaning is tier-specific, and the two stderr announce prefixes. Pprof
// mounts /debug/pprof/ on the metrics plane.
type Wording struct {
	Name, Addr                                            string
	MetricsAddr, MaxSessions, RetryAfter, SessionTTL, SLO string
	Admission, Regulation                                 string
	Pprof                                                 bool
}

// Flags is the flag group wsblockd and wsgate share: defined once
// (Register), validated once (Validate), consumed by Run — and by each
// command for the tier-side settings (MaxSessions, RetryAfter, SessionTTL
// seed the tier's Config).
type Flags struct {
	Addr, MetricsAddr string
	Quiet             bool
	SessionTTL        time.Duration
	MaxSessions       int
	RetryAfter        time.Duration
	SLOp95MS          float64
	RegulateInterval  time.Duration
	RegulateMode      string
	RegulateFloor     int
	RegulateCeiling   int

	w Wording
}

// Register defines the shared flags on fs under w's wording.
func Register(fs *flag.FlagSet, w Wording) *Flags {
	f := &Flags{w: w}
	fs.StringVar(&f.Addr, "addr", w.Addr, "listen address")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", w.MetricsAddr)
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress request logging")
	fs.DurationVar(&f.SessionTTL, "session-ttl", 5*time.Minute, w.SessionTTL)
	fs.IntVar(&f.MaxSessions, "max-sessions", 0, w.MaxSessions)
	fs.DurationVar(&f.RetryAfter, "retry-after", time.Second, w.RetryAfter)
	fs.Float64Var(&f.SLOp95MS, "slo-p95-ms", 0, w.SLO)
	fs.DurationVar(&f.RegulateInterval, "regulate-interval", time.Second, "SLO regulation: control-loop tick interval")
	fs.StringVar(&f.RegulateMode, "regulate-mode", "proportional", "SLO regulation: control law, proportional or step")
	fs.IntVar(&f.RegulateFloor, "regulate-floor", 1, "SLO regulation: lowest admitted-session ceiling the regulator may command")
	fs.IntVar(&f.RegulateCeiling, "regulate-ceiling", 0, "SLO regulation: highest admitted-session ceiling (0 = use -max-sessions, or 64 when that is unlimited)")
	return f
}

// Validate rejects the settings the daemon would otherwise discover deep
// into startup or silently run with (a zero session TTL expires every
// session on the janitor's first tick). Every error names its flag. The
// regulate-* flags only matter, and are only checked, with -slo-p95-ms.
func (f *Flags) Validate() error {
	switch {
	case f.SessionTTL <= 0:
		return fmt.Errorf("-session-ttl must be positive, got %s", f.SessionTTL)
	case f.MaxSessions < 0:
		return fmt.Errorf("-max-sessions must be >= 0, got %d", f.MaxSessions)
	case f.RetryAfter < 0:
		return fmt.Errorf("-retry-after must be >= 0, got %s", f.RetryAfter)
	case f.SLOp95MS < 0:
		return fmt.Errorf("-slo-p95-ms must be >= 0, got %g", f.SLOp95MS)
	case f.SLOp95MS == 0:
		return nil
	case f.RegulateInterval <= 0:
		return fmt.Errorf("-regulate-interval must be positive, got %s", f.RegulateInterval)
	case f.RegulateFloor < 1:
		return fmt.Errorf("-regulate-floor must be >= 1, got %d", f.RegulateFloor)
	case f.ceiling() < f.RegulateFloor:
		return fmt.Errorf("-regulate-ceiling: the admitted-session ceiling %d (-regulate-ceiling, else -max-sessions, else 64) is below -regulate-floor %d", f.ceiling(), f.RegulateFloor)
	}
	if _, err := regulator.ParseMode(f.RegulateMode); err != nil {
		return fmt.Errorf("-regulate-mode: %w", err)
	}
	return nil
}

// ceiling is the regulator's upper bound: -regulate-ceiling, else the
// static -max-sessions, else 64.
func (f *Flags) ceiling() int {
	switch {
	case f.RegulateCeiling != 0:
		return f.RegulateCeiling
	case f.MaxSessions != 0:
		return f.MaxSessions
	}
	return 64
}

// RequestLogger is l, or nil under -quiet: what a tier's Config.Logger
// takes.
func (f *Flags) RequestLogger(l *log.Logger) *log.Logger {
	if f.Quiet {
		return nil
	}
	return l
}

// NewRegistry is the registry behind -metrics-addr, with the Go runtime
// series already in it; the command hands it to its tier's Config.
func NewRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	return reg
}

// Daemon is one tier ready to run under validated Flags.
type Daemon struct {
	Flags    *Flags
	Tier     Tier
	Registry *metrics.Registry
	Logger   *log.Logger
	// Listening is appended to the "listening on ADDR" announce line
	// (wsblockd names its codec there).
	Listening string
	// Background, when non-nil, starts the tier's own goroutines (the
	// gateway's replication pullers); they must stop when ctx is cancelled.
	Background func(ctx context.Context)
	// Out receives the stdout announce lines (nil = os.Stdout).
	Out io.Writer
}

// janitorInterval is how often idle sessions are swept: a quarter of the
// TTL — so a session outlives it by at most that much — within [1 s,
// 1 min].
func janitorInterval(ttl time.Duration) time.Duration {
	return min(max(ttl/4, time.Second), time.Minute)
}

// Run serves the tier until ctx is cancelled, then lets in-flight block
// transfers finish (up to shutdownGrace) and returns once the listeners,
// the janitor and the regulator have all stopped. It listens before it
// announces, so `-addr 127.0.0.1:0` reports the port the kernel picked.
func (d Daemon) Run(ctx context.Context) error {
	f, words, logger := d.Flags, d.Flags.w, d.Logger
	out := d.Out
	if out == nil {
		out = os.Stdout
	}
	if f.MaxSessions > 0 {
		logger.Printf("%s: max %d concurrent sessions (Retry-After %s)", words.Admission, f.MaxSessions, f.RetryAfter)
	}

	// SLO regulation: a feedback loop owns the tier's session limit,
	// reading the windowed p95 block-serve time and steering it onto the
	// setpoint.
	var runner *regulator.Runner
	if f.SLOp95MS > 0 {
		mode, err := regulator.ParseMode(f.RegulateMode)
		if err != nil {
			return err
		}
		ctl, err := regulator.New(regulator.Config{
			SLOp95MS: f.SLOp95MS,
			Mode:     mode,
			Floor:    f.RegulateFloor,
			Ceiling:  f.ceiling(),
		})
		if err != nil {
			return err
		}
		regulator.Register(d.Registry, ctl)
		runner = &regulator.Runner{Reg: ctl, Interval: f.RegulateInterval, Src: d.Tier.BlockServeSnapshot, Sink: d.Tier}
		logger.Printf("%s: p95 <= %gms, %s law, limit in [%d, %d], tick %s",
			words.Regulation, f.SLOp95MS, mode, f.RegulateFloor, f.ceiling(), f.RegulateInterval)
	}

	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return err
	}
	servers := []*http.Server{{Handler: d.Tier.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}}
	// Every goroutine below stops on ctx (or on the shutdown ctx brings)
	// and is joined before Run returns.
	var bg sync.WaitGroup
	spawn := func(fn func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			fn()
		}()
	}

	// Observability plane: /metrics, /healthz (and pprof) on their own
	// listener so operational scrapes never contend with block traffic.
	if f.MetricsAddr != "" {
		mln, err := net.Listen("tcp", f.MetricsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", d.Registry.Handler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
		if words.Pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		msrv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		servers = append(servers, msrv)
		spawn(func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics server: %v", err)
			}
		})
		fmt.Fprintf(out, "%s metrics on %s\n", words.Name, mln.Addr())
	}

	if d.Background != nil {
		d.Background(ctx)
	}
	if runner != nil {
		spawn(func() { runner.Run(ctx) })
	}
	// Janitor: the one idle-session sweep, for either tier.
	spawn(func() {
		t := time.NewTicker(janitorInterval(f.SessionTTL))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				if n := d.Tier.ExpireIdle(now); n > 0 {
					logger.Printf("expired %d idle sessions", n)
				}
			}
		}
	})
	// Graceful shutdown: finish in-flight block transfers.
	spawn(func() {
		<-ctx.Done()
		logger.Print("shutting down ...")
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		for _, srv := range servers {
			if err := srv.Shutdown(grace); err != nil {
				logger.Printf("shutdown: %v", err)
			}
		}
	})

	fmt.Fprintf(out, "%s listening on %s%s\n", words.Name, ln.Addr(), d.Listening)
	err = servers[0].Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		// Serve returns the moment Shutdown begins; wait for the in-flight
		// requests to drain and the loops to stop.
		bg.Wait()
		return nil
	}
	return err
}
