// Command wsblockd runs the block-pull web service over generated
// TPC-H-style data — the reproduction of the paper's OGSA-DAI data
// service on Apache Tomcat.
//
// Usage:
//
//	wsblockd -addr :8080 -sf 0.1
//	wsblockd -addr :8080 -sf 1 -codec binary -conf conf2.2 -timescale 0.001
//	wsblockd -addr :8080 -metrics-addr :9090   # Prometheus /metrics + pprof
//	wsblockd -addr :8080 -cache-mem-bytes 67108864 \
//	    -cache-dir /var/cache/wsblockd -cache-disk-bytes 268435456
//
// With -conf, per-block delays are drawn from the named calibrated cost
// profile and injected (scaled by -timescale) so a laptop reproduces the
// paper's WAN/loaded-server conditions. Load can also be adjusted at
// runtime via PUT /load. With -metrics-addr, a second listener serves
// Prometheus text-format metrics at /metrics, a liveness probe at
// /healthz, and the standard pprof profiling endpoints under
// /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/regulator"
	"wsopt/internal/replica"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
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
		addr        = flag.String("addr", ":8080", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty = disabled)")
		sf          = flag.Float64("sf", 0.1, "TPC-H scale factor (1 = 150K customers, 450K orders)")
		codecName   = flag.String("codec", "xml", "block codec: xml or binary")
		confName    = flag.String("conf", "", "inject delays from a calibrated profile (conf1.1 .. conf2.2)")
		timescale   = flag.Float64("timescale", 0.001, "real milliseconds slept per simulated millisecond")
		quiet       = flag.Bool("quiet", false, "suppress request logging")
		dataDir     = flag.String("data", "", "cache generated tables in this directory across restarts")

		faultDrop  = flag.Float64("fault-drop", 0, "chaos: probability of severing the connection after a block is processed")
		faultTrunc = flag.Float64("fault-truncate", 0, "chaos: probability of truncating a block response body")
		fault503   = flag.Float64("fault-503", 0, "chaos: probability of refusing a block request with 503")
		faultSeed  = flag.Int64("fault-seed", 0, "chaos: fault RNG seed (0 = derive from clock)")

		replicate = flag.Int("replicate", 0, "replication: retain this many session-mutation records in the log served at GET /replication/feed for follower shipping (0 = disabled)")

		sessionTTL = flag.Duration("session-ttl", 5*time.Minute, "expire sessions idle longer than this")

		push         = flag.Bool("push", true, "serve the push streaming transport (POST /sessions/{id}/stream + credit side channel) alongside pull")
		pushWindow   = flag.Int("push-window", 0, "push: cap the credit window a client may grant (0 = default 64)")
		pushMaxFrame = flag.Int("push-max-frame", 0, "push: cap one frame's encoded payload in bytes (0 = default 8 MiB)")

		cacheMemBytes  = flag.Int64("cache-mem-bytes", 0, "cache: hold up to this many bytes of encoded blocks in memory, content-addressed by plan+cursor+codec+dataset version (0 = disabled)")
		cacheDir       = flag.String("cache-dir", "", "cache: spill evicted entries to files in this directory (requires -cache-mem-bytes and -cache-disk-bytes)")
		cacheDiskBytes = flag.Int64("cache-disk-bytes", 0, "cache: byte budget for the -cache-dir disk tier")

		maxSessions = flag.Int("max-sessions", 0, "admission control: refuse new sessions with 503 + Retry-After beyond this many open cursors (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "base Retry-After hint sent with admission-control 503s (scaled by regulator pressure)")

		sloP95MS     = flag.Float64("slo-p95-ms", 0, "SLO regulation: hold the p95 block-serve time at this many milliseconds by actuating the session limit (0 = static -max-sessions)")
		regInterval  = flag.Duration("regulate-interval", time.Second, "SLO regulation: control-loop tick interval")
		regModeName  = flag.String("regulate-mode", "proportional", "SLO regulation: control law, proportional or step")
		regFloor     = flag.Int("regulate-floor", 1, "SLO regulation: lowest admitted-session ceiling the regulator may command")
		regCeiling   = flag.Int("regulate-ceiling", 0, "SLO regulation: highest admitted-session ceiling (0 = use -max-sessions, or 64 when that is unlimited)")
		loadFromLive = flag.Bool("load-live", false, "couple the injected-delay model to the live session count (each extra open session adds one concurrent query to the simulated load)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "wsblockd: ", log.LstdFlags)
	opts := options{
		sessionTTL:     *sessionTTL,
		replicate:      *replicate,
		cacheMemBytes:  *cacheMemBytes,
		cacheDir:       *cacheDir,
		cacheDiskBytes: *cacheDiskBytes,
		push:           *push,
		pushWindow:     *pushWindow,
		pushMaxFrame:   *pushMaxFrame,
	}
	if err := opts.validate(); err != nil {
		logger.Fatal(err)
	}
	codec, err := wire.ByName(*codecName)
	if err != nil {
		logger.Fatal(err)
	}

	var cat *minidb.Catalog
	if *dataDir != "" {
		if loaded, err := minidb.LoadCatalog(*dataDir); err == nil {
			cat = loaded
			logger.Printf("loaded cached tables %v from %s", cat.Names(), *dataDir)
		}
	}
	if cat == nil {
		logger.Printf("generating TPC-H data at scale %g ...", *sf)
		start := time.Now()
		var err error
		cat, err = tpch.Load(*sf)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("generated %v in %v", cat.Names(), time.Since(start).Round(time.Millisecond))
		if *dataDir != "" {
			if err := minidb.SaveCatalog(*dataDir, cat); err != nil {
				logger.Printf("warning: could not cache tables: %v", err)
			} else {
				logger.Printf("cached tables to %s", *dataDir)
			}
		}
	}

	var model netsim.CostModel
	if *confName != "" {
		spec, err := profile.SpecByName(*confName)
		if err != nil {
			logger.Fatal(err)
		}
		model = spec.New(time.Now().UnixNano()).Model()
		logger.Printf("injecting delays from %s (%s) at timescale %g", spec.Name, model, *timescale)
	}

	faults := service.FaultConfig{
		DropProb:     *faultDrop,
		TruncateProb: *faultTrunc,
		Error503Prob: *fault503,
	}
	seed := time.Now().UnixNano()
	if *faultSeed != 0 {
		seed = *faultSeed
	}
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	var replog *replica.Log
	if *replicate > 0 {
		replog = replica.NewLog(*replicate)
	}
	var cache *blockcache.Cache
	if *cacheMemBytes > 0 {
		cache, err = blockcache.New(blockcache.Config{
			MemBytes:  *cacheMemBytes,
			Dir:       *cacheDir,
			DiskBytes: *cacheDiskBytes,
			Metrics:   reg,
		})
		if err != nil {
			logger.Fatal(err)
		}
	}
	srv, err := service.New(service.Config{
		Catalog:           cat,
		Codec:             codec,
		CostModel:         model,
		SleepScale:        *timescale,
		Logger:            reqLogger,
		Seed:              seed,
		Faults:            faults,
		Metrics:           reg,
		MaxSessions:       *maxSessions,
		RetryAfter:        *retryAfter,
		LoadFromSessions:  *loadFromLive,
		Replica:           replog,
		SessionTTL:        *sessionTTL,
		Cache:             cache,
		PushDisabled:      !*push,
		PushMaxWindow:     *pushWindow,
		PushMaxFrameBytes: *pushMaxFrame,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if *faultDrop > 0 || *faultTrunc > 0 || *fault503 > 0 {
		logger.Printf("fault injection enabled: drop=%.2f truncate=%.2f 503=%.2f",
			*faultDrop, *faultTrunc, *fault503)
	}
	if *maxSessions > 0 {
		logger.Printf("admission control: max %d concurrent sessions (Retry-After %s)", *maxSessions, *retryAfter)
	}
	if !*push {
		logger.Print("push transport disabled: serving pull only")
	}
	if replog != nil {
		logger.Printf("replication: shipping session mutations via /replication/feed (retaining %d records)", *replicate)
	}
	if cache != nil {
		if *cacheDir != "" {
			logger.Printf("block cache: %d MiB memory + %d MiB disk at %s", *cacheMemBytes>>20, *cacheDiskBytes>>20, *cacheDir)
		} else {
			logger.Printf("block cache: %d MiB memory", *cacheMemBytes>>20)
		}
	}

	// SLO regulation: a feedback loop owns the session limit, reading the
	// windowed p95 block-serve time and steering it onto the setpoint.
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
			Seed:     seed,
		})
		if err != nil {
			logger.Fatal(err)
		}
		regulator.Register(reg, regCtl)
		regRunner = &regulator.Runner{
			Reg:      regCtl,
			Interval: *regInterval,
			Src:      srv.BlockServeSnapshot,
			Sink:     srv,
		}
		logger.Printf("SLO regulation: p95 <= %gms, %s law, limit in [%d, %d], tick %s",
			*sloP95MS, mode, *regFloor, ceiling, *regInterval)
	}

	// Janitor: expire idle sessions once a minute.
	go func() {
		for range time.Tick(time.Minute) {
			if n := srv.ExpireIdle(time.Now()); n > 0 {
				logger.Printf("expired %d idle sessions", n)
			}
		}
	}()

	// Listen before announcing, so `-addr 127.0.0.1:0` reports the port
	// the kernel actually picked (the e2e tests depend on this).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	// Observability plane: /metrics, /healthz, and pprof on their own
	// listener so operational scrapes never contend with block traffic.
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
		mmux.HandleFunc("/debug/pprof/", pprof.Index)
		mmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Handler: mmux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("wsblockd metrics on %s\n", mln.Addr())
	}

	// Graceful shutdown: finish in-flight block transfers on SIGINT/TERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
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

	fmt.Printf("wsblockd listening on %s (codec=%s)\n", ln.Addr(), codec.Name())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Fatal(err)
	}
	// Serve returns the moment Shutdown begins; wait for in-flight
	// requests to drain before exiting.
	<-shutdownDone
}
