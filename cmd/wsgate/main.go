// Command wsgate runs the replicated-session gateway tier in front of a
// fleet of wsblockd backends. Clients speak the ordinary block-pull
// protocol to the gateway; underneath, sessions are placed on the
// backends in turn, every session mutation is log-shipped from its
// primary to the gateway's standby store, and a backend dying
// mid-transfer is failed over transparently to the next healthy one —
// the client's next pull serves the correct seq with zero duplicate or
// lost tuples.
//
// Usage:
//
//	wsgate -backends http://h1:8080,http://h2:8080,http://h3:8080
//	wsgate -addr :8079 -backends ... -metrics-addr :9079
//	wsgate -backends ... -slo-p95-ms 25        # fleet-wide edge regulation
//
// The backends should run with -replicate so the gateway can serve
// byte-identical replays after a crash; without it, post-crash retries
// fall back to re-pulling the lost block from the next backend.
//
// With -slo-p95-ms the feedback loop wsblockd runs per replica moves to
// the edge: the measured variable is the gateway's own block-serve
// histogram — every block of every backend flows through it — and the
// actuated variable is the edge admission ceiling, so one regulator
// shapes load for the whole tier. That loop, like the listeners, the
// metrics plane, the idle-session janitor and graceful shutdown, is
// internal/daemon's, shared with wsblockd; this file builds the tier.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"wsopt/internal/daemon"
	"wsopt/internal/gateway"
)

func main() {
	logger := log.New(os.Stderr, "wsgate: ", log.LstdFlags)
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
	gw, err := gateway.New(gateway.Config{
		Backends:     opts.backends,
		Breaker:      opts.breaker,
		PullInterval: opts.pullInterval,
		MaxSessions:  opts.MaxSessions,
		SessionTTL:   opts.SessionTTL,
		RetryAfter:   opts.RetryAfter,
		Metrics:      reg,
		Logger:       opts.RequestLogger(logger),
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("fronting %d backends: %s", len(opts.backends), strings.Join(opts.backends, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = daemon.Daemon{
		Flags:      opts.Flags,
		Tier:       gw,
		Registry:   reg,
		Logger:     logger,
		Background: gw.Start, // the per-backend replication pullers
	}.Run(ctx)
	if err != nil {
		logger.Fatal(err)
	}
}
