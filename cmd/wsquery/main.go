// Command wsquery executes a pull-mode query against a wsblockd service
// with a chosen block-size controller — Algorithm 1 of the paper, live.
//
// Usage:
//
//	wsquery -url http://localhost:8080 -table customer -controller hybrid
//	wsquery -table orders -controller model-parabolic -limits 100:20000
//	wsquery -table customer -controller static -size 1000
//	wsquery -table customer -controller constant -b1 800 -trace
//	wsquery -table customer -events transfer.jsonl   # structured per-block trace
//	wsquery -endpoints http://a:8080,http://b:8080 -table customer
//	wsquery -table customer -push -push-window 8
//	wsquery -table customer -controller vector -streams 8 -pipeline-depth 4
//	wsquery -table customer -streams 8 -profile-store profiles.json
//
// With -endpoints, the client spreads resilience across the listed
// replicas: per-endpoint circuit breakers, adaptive per-block deadlines,
// and mid-query session failover — off a replica whose breaker opened or
// that let a block outlive its deadline — that resumes from the committed
// tuple cursor.
//
// With -controller vector (or, when no -controller is named,
// -streams/-pipeline-depth above 1), the query runs as an adaptive
// parallel-stream transfer: the multi-dimensional controller tunes block
// size, stream count, and per-stream pipeline depth together, and
// -profile-store warm-starts it from the nearest stored workload optimum.
// Every other controller drives one stream at depth 1, so naming one
// together with -streams/-pipeline-depth above 1 is refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/metrics"
	"wsopt/internal/sysid"
)

func main() {
	logger := log.New(os.Stderr, "wsquery: ", 0)
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
	ctl, err := buildController(opts)
	if err != nil {
		logger.Fatal(err)
	}
	c, err := client.NewMulti(opts.urls, opts.codec, nil)
	if err != nil {
		logger.Fatal(err)
	}
	c.SetRetry(opts.retry)
	if err := c.SetResilience(client.ResilienceConfig{Breaker: opts.breaker, Deadline: opts.deadline}); err != nil {
		logger.Fatal(err)
	}
	if opts.push {
		c.SetPush(client.PushConfig{Enabled: true, Window: opts.pushWindow})
	}
	var reg *metrics.Registry
	if opts.metricsOut != "" {
		reg = metrics.NewRegistry()
		c.SetMetrics(reg)
	}

	// The transfer engine emits one record per block in every run mode;
	// -events writes them as JSONL and -trace prints them on the way.
	var eventsFile *os.File
	var events *client.EventWriter
	var sink client.EventSink
	if opts.eventsOut != "" {
		eventsFile, err = os.Create(opts.eventsOut)
		if err != nil {
			logger.Fatal(err)
		}
		events = client.NewEventWriter(eventsFile)
		sink = events
	}
	if opts.trace {
		sink = &tracePrinter{out: os.Stdout, useInjected: opts.useInjected, next: sink}
	}
	if sink != nil {
		c.SetEvents(sink)
	}

	q := client.Query{Table: opts.table, Where: opts.where}
	if opts.columns != "" {
		q.Columns = strings.Split(opts.columns, ",")
	}

	if err := runQuery(context.Background(), logger, c, q, ctl, opts); err != nil {
		logger.Fatal(err)
	}
	// A finished run leaves its sessions' DELETEs behind it; do not exit
	// before they have landed (no error without a deadline).
	_ = c.Wait(context.Background())

	if events != nil {
		if err := events.Flush(); err != nil {
			logger.Fatal(err)
		}
		if err := eventsFile.Close(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("events written to %s", opts.eventsOut)
	}
	if reg != nil {
		f, err := os.Create(opts.metricsOut)
		if err != nil {
			logger.Fatal(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			logger.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("metrics written to %s", opts.metricsOut)
	}
}

// runQuery executes the query and prints its summary. The vector
// controller runs on the parallel-stream runner (block size × streams ×
// pipeline depth); with -profile-store it warm-starts from the nearest
// stored workload optimum and the run's outcome is recorded back, so
// later runs of similar workloads skip the search. Every other
// controller runs on the single-session path.
func runQuery(ctx context.Context, logger *log.Logger, c *client.Client, q client.Query, ctl core.Controller, o *options) error {
	start := time.Now()
	vctl, vector := ctl.(*core.VectorController)
	if !vector {
		res, err := c.Run(ctx, q, ctl, client.MetricPerTuple, o.useInjected)
		if err != nil {
			return err
		}
		printSummary(ctl.Name(), res, nil, time.Since(start))
		return nil
	}

	var store *sysid.Store
	if o.profileStore != "" {
		var err error
		if store, err = sysid.OpenStore(o.profileStore); err != nil {
			return err
		}
		if store.WarmStart(vctl, o.workload, 0) {
			logger.Printf("warm-started from profile store at %v", vctl.Vector())
		} else {
			logger.Printf("no stored profile within range; starting cold at %v", vctl.Vector())
		}
	}
	res, err := c.RunVector(ctx, q, ctl, client.VectorRunConfig{
		Metric:      client.MetricPerTuple,
		UseInjected: o.useInjected,
		ChunkTuples: o.chunkTuples,
		MaxStreams:  o.streams,
	})
	if err != nil {
		return err
	}
	if store != nil && res.Tuples > 0 {
		perTuple := float64(res.Elapsed.Milliseconds()) / float64(res.Tuples)
		if o.useInjected && res.SimulatedMS > 0 {
			perTuple = res.SimulatedMS / float64(res.Tuples)
		}
		rec := sysid.ProfileRecord{Workload: o.workload, Optimum: res.Final, PerTupleMS: perTuple, Rounds: res.Blocks}
		if err := store.Put(rec); err != nil {
			return err
		}
		logger.Printf("profile store updated: %v (%.4f ms/tuple over %d blocks)", res.Final, perTuple, res.Blocks)
	}
	printSummary(ctl.Name(), &res.RunResult, res, res.WallTime)
	return nil
}

// printSummary prints the run's summary; vec carries what only a
// parallel-stream run has.
func printSummary(name string, res *client.RunResult, vec *client.VectorRunResult, wall time.Duration) {
	chunks := ""
	if vec != nil {
		chunks = fmt.Sprintf(" over %d chunks", vec.Chunks)
	}
	fmt.Printf("controller:      %s\n", name)
	fmt.Printf("tuples:          %d in %d blocks%s\n", res.Tuples, res.Blocks, chunks)
	fmt.Printf("wall time:       %v\n", wall.Round(time.Millisecond))
	if vec != nil {
		fmt.Printf("peak streams:    %d\n", vec.PeakStreams)
	}
	if res.Retries > 0 || res.Replays > 0 {
		fmt.Printf("retries:         %d (%d blocks replayed by the server)\n", res.Retries, res.Replays)
	}
	if res.Failovers > 0 {
		fmt.Printf("resilience:      %d session failovers\n", res.Failovers)
	}
	if res.SimulatedMS > 0 {
		fmt.Printf("simulated time:  %.1f s\n", res.SimulatedMS/1000)
	}
	switch {
	case vec != nil:
		fmt.Printf("final vector:    %v\n", vec.Final)
	case len(res.Sizes) > 0:
		fmt.Printf("final size:      %d tuples\n", res.Sizes[len(res.Sizes)-1])
	}
}

// tracePrinter is -trace: it prints every block record the transfer
// engine emits — whichever run mode and transport produced it — and
// passes the record on to the -events writer, if there is one. Vector
// streams write concurrently, hence the mutex.
type tracePrinter struct {
	out         io.Writer
	useInjected bool
	next        client.EventSink

	mu     sync.Mutex
	blocks int
}

func (p *tracePrinter) Write(ev client.BlockEvent) error {
	y := ev.RTTMS
	if p.useInjected && ev.InjectedMS > 0 {
		y = ev.InjectedMS
	}
	note := ""
	if ev.Failovers > 0 {
		note += fmt.Sprintf(" failovers=%d", ev.Failovers)
	}
	p.mu.Lock()
	p.blocks++
	_, err := fmt.Fprintf(p.out, "block %3d: size=%6d got=%6d time=%9.2fms per-tuple=%.4fms next=%6d %s#%d%s\n",
		p.blocks, ev.Size, ev.Tuples, y, y/float64(ev.Tuples), ev.Decision, ev.Session, ev.Seq, note)
	p.mu.Unlock()
	if err != nil || p.next == nil {
		return err
	}
	return p.next.Write(ev)
}

// buildController builds the controller -controller names (validate has
// resolved the name: "vector" when -streams/-pipeline-depth asked for it).
func buildController(o *options) (core.Controller, error) {
	size, limits := o.size, o.limits
	cfg := core.DefaultConfig()
	cfg.InitialSize = size
	cfg.B1 = o.b1
	cfg.B2 = o.b2
	cfg.Limits = limits
	cfg.Seed = time.Now().UnixNano()
	switch o.controller {
	case "static":
		return core.NewStatic(size), nil
	case "constant":
		return core.NewConstant(cfg)
	case "adaptive":
		return core.NewAdaptive(cfg)
	case "hybrid":
		return core.NewHybrid(cfg)
	case "hybrid-s":
		cfg.AllowSwitchBack = true
		return core.NewHybrid(cfg)
	case "aimd":
		return core.NewAIMD(core.AIMDConfig{InitialSize: size, Increase: o.b1 / 2, Decrease: 0.5, Limits: limits, AvgHorizon: cfg.AvgHorizon})
	case "mimd":
		return core.NewMIMD(core.MIMDConfig{InitialSize: size, Gain: 1.5, Limits: limits, AvgHorizon: cfg.AvgHorizon, ScaleWindow: 4})
	case "model-quadratic":
		return sysid.NewModelBased(sysid.ModelBasedConfig{Limits: limits, Kind: sysid.ModelQuadratic})
	case "model-parabolic":
		return sysid.NewModelBased(sysid.ModelBasedConfig{Limits: limits, Kind: sysid.ModelParabolic})
	case "self-tuning":
		return sysid.NewSelfTuning(sysid.SelfTuningConfig{Limits: limits})
	case "setpoint":
		return sysid.NewSetpointTracking(sysid.SetpointConfig{Limits: limits, Kind: sysid.ModelParabolic})
	case "supervisor":
		hybrid, err := core.NewHybrid(cfg)
		if err != nil {
			return nil, err
		}
		constant, err := core.NewConstant(cfg)
		if err != nil {
			return nil, err
		}
		return core.NewSupervisor([]core.Controller{hybrid, constant}, core.SupervisorConfig{})
	case "vector":
		// Under push the credit-window dimension joins the search; the pull
		// config pins it so trajectories stay comparable with prior runs.
		vcfg := core.DefaultVectorConfig()
		if o.push {
			vcfg = core.DefaultPushVectorConfig()
		}
		vcfg.Dims[core.DimSize].Initial = size
		vcfg.Dims[core.DimSize].Limits = limits
		vcfg.Dims[core.DimSize].B1 = o.b1
		vcfg.Dims[core.DimSize].B2 = o.b2
		if o.streams > 0 {
			vcfg.Dims[core.DimStreams].Limits = core.Limits{Min: 1, Max: o.streams}
		}
		if o.pipeDepth > 0 {
			vcfg.Dims[core.DimDepth].Limits = core.Limits{Min: 1, Max: o.pipeDepth}
		}
		vcfg.Seed = cfg.Seed
		return core.NewVector(vcfg)
	default:
		return nil, fmt.Errorf("unknown controller %q", o.controller)
	}
}
