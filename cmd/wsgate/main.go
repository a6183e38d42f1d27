// Command wsgate runs the replicated-session gateway tier in front of a
// fleet of wsblockd backends. Clients speak the ordinary block-pull
// protocol to the gateway; underneath, sessions are placed with
// consistent-hash affinity, every session mutation is log-shipped from
// its primary to the gateway's standby store, and a backend dying
// mid-transfer is failed over transparently — the client's next pull
// serves the correct seq with zero duplicate or lost tuples.
//
// Usage:
//
//	wsgate -backends http://h1:8080,http://h2:8080,http://h3:8080
//	wsgate -addr :8079 -backends ... -metrics-addr :9079
//	wsgate -backends ... -slo-p95-ms 25        # fleet-wide edge regulation
//
// The backends should run with -replicate so the gateway can serve
// byte-identical replays after a crash; without it, post-crash retries
// fall back to re-pulling the lost block from the successor.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsopt/internal/gateway"
	"wsopt/internal/metrics"
	"wsopt/internal/regulator"
	"wsopt/internal/resilience"
)

// Slow-peer bounds on both listeners: how long a connection may take to
// send its request headers, and how long an idle keep-alive connection is
// kept. No WriteTimeout — it would cut long-lived push streams.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", ":8079", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "serve aggregate /metrics and /healthz on this address (empty = disabled)")
		backendsCSV = flag.String("backends", "", "comma-separated wsblockd base URLs (required)")
		vnodes      = flag.Int("vnodes", 64, "consistent-hash ring points per backend")

		pullInterval = flag.Duration("pull-interval", 25*time.Millisecond, "replication poll period per backend")

		breakerFailures = flag.Int("breaker-failures", 5, "consecutive failures that open a backend's circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker refuses a backend before a half-open probe")

		maxSessions = flag.Int("max-sessions", 0, "edge admission: refuse new sessions with 503 + Retry-After beyond this many open sessions (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "base Retry-After hint sent with edge-admission 503s (scaled by regulator pressure)")
		sessionTTL  = flag.Duration("session-ttl", 5*time.Minute, "expire gateway sessions idle longer than this, releasing their admission slots")

		sloP95MS    = flag.Float64("slo-p95-ms", 0, "SLO regulation: hold the fleet-wide p95 block-serve time at this many milliseconds by actuating the edge session limit (0 = static -max-sessions)")
		regInterval = flag.Duration("regulate-interval", time.Second, "SLO regulation: control-loop tick interval")
		regModeName = flag.String("regulate-mode", "proportional", "SLO regulation: control law, proportional or step")
		regFloor    = flag.Int("regulate-floor", 1, "SLO regulation: lowest admitted-session ceiling the regulator may command")
		regCeiling  = flag.Int("regulate-ceiling", 0, "SLO regulation: highest admitted-session ceiling (0 = use -max-sessions, or 64 when that is unlimited)")

		quiet = flag.Bool("quiet", false, "suppress request logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "wsgate: ", log.LstdFlags)
	opts := options{sessionTTL: *sessionTTL, pullInterval: *pullInterval, vnodes: *vnodes}
	if err := opts.validate(); err != nil {
		logger.Fatal(err)
	}
	var backends []string
	for _, b := range strings.Split(*backendsCSV, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, strings.TrimRight(b, "/"))
		}
	}
	if len(backends) == 0 {
		logger.Fatal("need -backends with at least one wsblockd URL")
	}

	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	gwLogger := logger
	if *quiet {
		gwLogger = nil
	}
	gw, err := gateway.New(gateway.Config{
		Backends: backends,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *breakerFailures,
			Cooldown:         *breakerCooldown,
		},
		PullInterval: *pullInterval,
		MaxSessions:  *maxSessions,
		SessionTTL:   *sessionTTL,
		RetryAfter:   *retryAfter,
		Vnodes:       *vnodes,
		Metrics:      reg,
		Logger:       gwLogger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("fronting %d backends: %s", len(backends), strings.Join(backends, ", "))
	if *maxSessions > 0 {
		logger.Printf("edge admission: max %d concurrent sessions (Retry-After %s)", *maxSessions, *retryAfter)
	}

	// Fleet-wide SLO regulation: the same feedback loop wsblockd runs
	// per-replica, moved to the edge. The measured variable is the
	// gateway's own block-serve histogram — every block of every backend
	// flows through it — and the actuated variable is the edge admission
	// ceiling, so one regulator shapes load for the whole tier.
	var regRunner *regulator.Runner
	if *sloP95MS > 0 {
		mode, err := regulator.ParseMode(*regModeName)
		if err != nil {
			logger.Fatal(err)
		}
		ceiling := *regCeiling
		if ceiling == 0 {
			ceiling = *maxSessions
		}
		if ceiling == 0 {
			ceiling = 64
		}
		regCtl, err := regulator.New(regulator.Config{
			SLOp95MS: *sloP95MS,
			Mode:     mode,
			Floor:    *regFloor,
			Ceiling:  ceiling,
			Seed:     time.Now().UnixNano(),
		})
		if err != nil {
			logger.Fatal(err)
		}
		regulator.Register(reg, regCtl)
		regRunner = &regulator.Runner{
			Reg:      regCtl,
			Interval: *regInterval,
			Src:      gw.BlockServeSnapshot,
			Sink:     gw,
		}
		logger.Printf("fleet SLO regulation: p95 <= %gms, %s law, limit in [%d, %d], tick %s",
			*sloP95MS, mode, *regFloor, ceiling, *regInterval)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Fatal(err)
		}
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", reg.Handler())
		mmux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
		metricsSrv = &http.Server{Handler: mmux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("wsgate metrics on %s\n", mln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.Start(ctx)
	if regRunner != nil {
		go regRunner.Run(ctx)
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Print("shutting down ...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		if metricsSrv != nil {
			if err := metricsSrv.Shutdown(shutdownCtx); err != nil {
				logger.Printf("metrics shutdown: %v", err)
			}
		}
	}()

	fmt.Printf("wsgate listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Fatal(err)
	}
	<-shutdownDone
}
