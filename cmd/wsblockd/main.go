// Command wsblockd runs the block-pull web service over generated
// TPC-H-style data — the reproduction of the paper's OGSA-DAI data
// service on Apache Tomcat.
//
// Usage:
//
//	wsblockd -addr :8080 -sf 0.1
//	wsblockd -addr :8080 -sf 1 -codec binary -conf conf2.2 -timescale 0.001
//	wsblockd -addr :8080 -metrics-addr :9090   # Prometheus /metrics + pprof
//	wsblockd -addr :8080 -cache-mem-bytes 67108864
//	wsblockd -addr :8080 -sf 1 -data /var/lib/wsblockd   # tables kept under sf-1/
//
// With -conf, per-block delays are drawn from the named calibrated cost
// profile and injected (scaled by -timescale) so a laptop reproduces the
// paper's WAN/loaded-server conditions. Load can also be adjusted at
// runtime via PUT /load. With -metrics-addr, a second listener serves
// Prometheus text-format metrics at /metrics, a liveness probe at
// /healthz, and the standard pprof profiling endpoints under
// /debug/pprof/.
//
// What it takes to run the service as a process — listeners, metrics
// plane, SLO regulation, the idle-session janitor, graceful shutdown — is
// internal/daemon's, shared with wsgate; this file builds the tier.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/daemon"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/profile"
	"wsopt/internal/replica"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
)

func main() {
	logger := log.New(os.Stderr, "wsblockd: ", log.LstdFlags)
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	opts, err := parseOptions(fs, os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil && opts == nil:
		os.Exit(2) // fs.Parse has printed the error and the usage
	case err != nil:
		logger.Fatal(err)
	}
	reg := daemon.NewRegistry()
	srv, err := buildServer(opts, reg, logger)
	if err != nil {
		logger.Fatal(err)
	}
	// Graceful shutdown: finish in-flight block transfers on SIGINT/TERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = daemon.Daemon{
		Flags:     opts.Flags,
		Tier:      srv,
		Registry:  reg,
		Logger:    logger,
		Listening: fmt.Sprintf(" (codec=%s)", opts.codec.Name()),
	}.Run(ctx)
	if err != nil {
		logger.Fatal(err)
	}
}

// buildServer assembles what is wsblockd's own — the dataset, the cost
// model, fault injection, the replication log, the block cache — into
// the service tier, announcing each on the way.
func buildServer(o *options, reg *metrics.Registry, logger *log.Logger) (*service.Server, error) {
	cat, err := loadCatalog(o, logger)
	if err != nil {
		return nil, err
	}
	var model netsim.CostModel
	if o.conf != "" {
		spec, err := profile.SpecByName(o.conf)
		if err != nil {
			return nil, err
		}
		model = spec.New(time.Now().UnixNano()).Model()
		logger.Printf("injecting delays from %s (%s) at timescale %g", spec.Name, model, o.timescale)
	}
	var replog *replica.Log
	if o.replicate > 0 {
		replog = replica.NewLog(o.replicate)
	}
	var cache *blockcache.Cache
	if o.cacheMemBytes > 0 {
		cache, err = blockcache.New(blockcache.Config{MemBytes: o.cacheMemBytes, Metrics: reg})
		if err != nil {
			return nil, err
		}
	}
	srv, err := service.New(service.Config{
		Catalog:           cat,
		Codec:             o.codec,
		CostModel:         model,
		SleepScale:        o.timescale,
		Logger:            o.RequestLogger(logger),
		Seed:              o.seed(),
		Faults:            o.faults,
		Metrics:           reg,
		MaxSessions:       o.MaxSessions,
		RetryAfter:        o.RetryAfter,
		LoadFromSessions:  o.loadLive,
		Replica:           replog,
		SessionTTL:        o.SessionTTL,
		Cache:             cache,
		PushDisabled:      !o.push,
		PushMaxWindow:     o.pushWindow,
		PushMaxFrameBytes: o.pushMaxFrame,
	})
	if err != nil {
		return nil, err
	}
	if f := o.faults; f != (service.FaultConfig{}) {
		logger.Printf("fault injection enabled: drop=%.2f truncate=%.2f 503=%.2f", f.DropProb, f.TruncateProb, f.Error503Prob)
	}
	if !o.push {
		logger.Print("push transport disabled: serving pull only")
	}
	if replog != nil {
		logger.Printf("replication: shipping session mutations via /replication/feed (retaining %d records)", o.replicate)
	}
	if cache != nil {
		logger.Printf("block cache: %d MiB memory", o.cacheMemBytes>>20)
	}
	return srv, nil
}

// loadCatalog returns the tables cached for -sf under -data, or
// generates them at -sf (and caches them there for the next start). Each
// scale has its own subdirectory, so a restart at another -sf never
// serves the tables of the last one.
func loadCatalog(o *options, logger *log.Logger) (*minidb.Catalog, error) {
	dir := ""
	if o.dataDir != "" {
		dir = filepath.Join(o.dataDir, "sf-"+strconv.FormatFloat(o.sf, 'g', -1, 64))
		if cat, err := minidb.LoadCatalog(dir); err == nil {
			logger.Printf("loaded cached tables %v from %s", cat.Names(), dir)
			return cat, nil
		}
	}
	logger.Printf("generating TPC-H data at scale %g ...", o.sf)
	start := time.Now()
	cat, err := tpch.Load(o.sf)
	if err != nil {
		return nil, err
	}
	logger.Printf("generated %v in %v", cat.Names(), time.Since(start).Round(time.Millisecond))
	if dir != "" {
		if err := minidb.SaveCatalog(dir, cat); err != nil {
			logger.Printf("warning: could not cache tables: %v", err)
		} else {
			logger.Printf("cached tables to %s", dir)
		}
	}
	return cat, nil
}
