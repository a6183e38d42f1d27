package client

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"wsopt/internal/core"
)

// This file is the multi-dimensional counterpart of Run: one logical
// query executed as N parallel streams, each stream pulling its own
// cursor-range of the result set, all feeding one shared controller.
// The knobs of its operating point (core.VectorOf — a controller without
// a vector of its own commands one stream at depth 1) map onto the runner
// as follows:
//
//   - block size   — requested per pull, exactly as in Run;
//   - streams      — the number of concurrent workers; workers re-check
//     the target at every chunk boundary, so the fan-out follows the
//     controller between chunks without tearing down in-flight pulls;
//   - depth        — the transfer engine's ahead count within a chunk:
//     how many pulls a worker keeps beyond the hand-off point (1 =
//     lock-step, as Run; d>1 trades control lag for overlap, as
//     RunPipelined).
//
// The result set is partitioned by a lease dispenser: workers atomically
// lease disjoint [offset, offset+chunk) tuple ranges and open one
// server-side session per lease (Offset/Limit resume, the same mechanism
// failover uses), so every tuple is delivered exactly once regardless of
// how many streams are running. All sessions of one run share a
// stream-group tag, which the service counts in its stream accounting.

// VectorRunConfig tunes one RunVector execution. The zero value is usable.
type VectorRunConfig struct {
	// Metric selects what the controller observes (default MetricPerTuple
	// — the vector controller's cost model is per-tuple).
	Metric Metric
	// UseInjected makes the controller observe the server-reported
	// simulated delay instead of wall time, for time-scaled experiments.
	UseInjected bool
	// ChunkTuples is the cursor-range lease size (default 4096). Smaller
	// chunks adapt the stream count faster; larger chunks amortize
	// session-open cost.
	ChunkTuples int
	// MaxStreams caps the worker fan-out regardless of what the
	// controller asks for (default 16).
	MaxStreams int
	// Handle, when set, receives every block's rows (cloned, safe to
	// retain). Blocks of different streams arrive concurrently and out of
	// global order; the handler must be safe for concurrent use.
	Handle BlockHandler
}

func (cfg VectorRunConfig) withDefaults() VectorRunConfig {
	if cfg.ChunkTuples <= 0 {
		cfg.ChunkTuples = 4096
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 16
	}
	return cfg
}

// VectorRunResult summarizes one parallel-stream adaptive execution.
type VectorRunResult struct {
	// RunResult adds up every block of every stream. With S concurrent
	// streams its Elapsed can exceed WallTime by up to a factor of S, and
	// Sizes is in hand-off order across streams.
	RunResult
	// WallTime is the end-to-end duration of the run.
	WallTime time.Duration
	// Chunks counts cursor-range leases actually served (empty
	// overshoot leases included).
	Chunks int
	// PeakStreams is the high-water concurrent worker count.
	PeakStreams int
	// Final is the controller's commanded vector after the run.
	Final core.Vector
}

// groupCounter makes stream-group IDs unique within the process; the
// group tag is accounting-only, so cross-process collisions are harmless.
var groupCounter atomic.Uint64

// leaseDispenser hands out disjoint [start, start+chunk) tuple ranges and
// learns the end of the result set from the first short chunk: rows are
// totally ordered server-side, so a lease at offset o that yields got <
// chunk tuples proves the result has exactly o+got rows, and later leases
// at or past that point are never issued (in-flight overshoot leases just
// drain empty sessions).
type leaseDispenser struct {
	chunk int
	next  atomic.Int64
	// total is the discovered result size; -1 while unknown.
	total atomic.Int64
}

func newLeaseDispenser(chunk int) *leaseDispenser {
	d := &leaseDispenser{chunk: chunk}
	d.total.Store(-1)
	return d
}

// take leases the next range; ok is false once the known end is reached.
func (d *leaseDispenser) take() (start int, ok bool) {
	for {
		n := d.next.Load()
		if t := d.total.Load(); t >= 0 && n >= t {
			return 0, false
		}
		if d.next.CompareAndSwap(n, n+int64(d.chunk)) {
			return int(n), true
		}
	}
}

// drained reports that every lease up to the known end has been handed
// out — no new worker will ever receive work.
func (d *leaseDispenser) drained() bool {
	t := d.total.Load()
	return t >= 0 && d.next.Load() >= t
}

// shorten records that the lease at start delivered only got tuples,
// bounding the result set. Concurrent discoveries keep the tightest bound.
func (d *leaseDispenser) shorten(start, got int) {
	bound := int64(start + got)
	for {
		t := d.total.Load()
		if t >= 0 && t <= bound {
			return
		}
		if d.total.CompareAndSwap(t, bound) {
			return
		}
	}
}

// vectorRun is the shared state of one RunVector execution. One mutex
// (run.mu) guards the controller, the aggregate accounting (both also
// reached through run) and the live-worker count — all off the per-block
// hot path's critical section (the pull itself runs without it).
type vectorRun struct {
	run  run
	q    Query
	cfg  VectorRunConfig
	dis  *leaseDispenser
	res  VectorRunResult
	live int
}

// target is the worker count the controller currently asks for, clamped
// to the configured cap. Called with run.mu held.
func (r *vectorRun) target() int {
	return min(max(core.VectorOf(r.run.ctl).Streams, 1), r.cfg.MaxStreams)
}

// depth reads the controller's pipeline-depth knob for one chunk.
func (r *vectorRun) depth() int {
	r.run.mu.Lock()
	defer r.run.mu.Unlock()
	return core.VectorOf(r.run.ctl).Depth
}

// RunVector executes one query as an adaptive parallel-stream transfer
// driven by ctl — the vector controller, or any other controller at the
// operating point core.VectorOf reads off it. It returns when the whole
// result set has been delivered (exactly once, across all streams) or on
// the first stream error, whichever comes first. Session moves on any
// stream are surfaced to the shared controller as disturbances.
func (c *Client) RunVector(ctx context.Context, q Query, ctl core.Controller, cfg VectorRunConfig) (*VectorRunResult, error) {
	if ctl == nil {
		return nil, fmt.Errorf("client: RunVector needs a controller")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &vectorRun{q: q, cfg: cfg, dis: newLeaseDispenser(cfg.ChunkTuples)}
	r.run = run{c: c, ctl: ctl, metric: cfg.Metric, useInjected: cfg.UseInjected, res: &r.res.RunResult}
	r.q.StreamGroup = fmt.Sprintf("vg-%08x", groupCounter.Add(1))
	// The outer query's own Limit bounds the result set from the start.
	if q.Limit > 0 {
		r.dis.total.Store(int64(q.Limit))
	}

	start := time.Now()
	// events carries one signal per finished chunk or worker exit, so the
	// supervisor can grow the fan-out when the controller raises its
	// stream target mid-run. Buffered so workers never block reporting.
	type workerEvent struct {
		err    error
		exited bool
	}
	events := make(chan workerEvent, 4*cfg.MaxStreams)

	var spawn func()
	worker := func() {
		for {
			r.run.mu.Lock()
			over := r.live > r.target()
			if over {
				r.live--
			}
			r.run.mu.Unlock()
			if over || ctx.Err() != nil {
				events <- workerEvent{exited: true}
				return
			}
			lease, ok := r.dis.take()
			if !ok {
				r.run.mu.Lock()
				r.live--
				r.run.mu.Unlock()
				events <- workerEvent{exited: true}
				return
			}
			if err := r.chunk(ctx, lease); err != nil {
				r.run.mu.Lock()
				r.live--
				r.run.mu.Unlock()
				events <- workerEvent{err: err, exited: true}
				return
			}
			events <- workerEvent{}
		}
	}
	spawn = func() {
		// Called with run.mu held.
		r.live++
		if r.live > r.res.PeakStreams {
			r.res.PeakStreams = r.live
		}
		go worker()
	}

	// outstanding counts workers this loop has spawned and not yet seen
	// exit — the join condition; r.live is the workers' own view and can
	// drop before the exit event is delivered.
	outstanding := 0
	r.run.mu.Lock()
	for r.live < r.target() {
		spawn()
		outstanding++
	}
	r.run.mu.Unlock()

	var firstErr error
	for outstanding > 0 {
		ev := <-events
		if ev.exited {
			outstanding--
		}
		if ev.err != nil && firstErr == nil {
			firstErr = ev.err
			cancel()
		}
		if firstErr == nil && ctx.Err() == nil && !r.dis.drained() {
			// Top up to the controller's current target. Once the
			// dispenser is drained, never spawn: a new worker would find
			// no lease and exit, and its exit event would trigger another
			// futile spawn, forever.
			r.run.mu.Lock()
			for r.live < r.target() {
				spawn()
				outstanding++
			}
			r.run.mu.Unlock()
		}
	}

	r.run.mu.Lock()
	res := r.res
	r.run.mu.Unlock()
	res.WallTime = time.Since(start)
	res.Final = core.VectorOf(ctl)
	if firstErr != nil {
		return &res, firstErr
	}
	return &res, ctx.Err()
}

// chunk transfers one leased cursor range over its own server session.
// The service applies Limit before Offset (an offset resumes *within* the
// limited result — the failover-resume semantics), so the lease
// [start, end) of the outer query's result maps to Offset = outer offset
// + start and Limit = absolute end position, not the chunk size.
func (r *vectorRun) chunk(ctx context.Context, start int) error {
	end := start + r.dis.chunk
	if r.q.Limit > 0 && end > r.q.Limit {
		end = r.q.Limit
	}
	lease := end - start
	q := r.q
	q.Offset = r.q.Offset + start
	q.Limit = r.q.Offset + end
	sess, err := r.run.c.session(ctx, q)
	if err != nil {
		return err
	}
	// Depth d keeps d pulls ahead of the hand-off point; depth 1 is
	// lock-step, as Run.
	ahead := r.depth()
	if ahead <= 1 {
		ahead = 0
	}
	got, err := r.run.transfer(ctx, sess, ahead, r.cfg.Handle)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return err
	}
	if got < lease {
		r.dis.shorten(start, got)
	}
	r.run.mu.Lock()
	r.res.Chunks++
	r.run.mu.Unlock()
	return nil
}
