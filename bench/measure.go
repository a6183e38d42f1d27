package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
)

// job is one whole query the closed-loop reader runs: open, pull every
// block through client.Run, close. ctl-profiles cycles through a list of
// them; every other workload repeats one.
type job struct {
	tgt *target
	// prof is the priced profile and ctlSeed the hybrid's dither seed
	// (ctl-profiles only; prof nil means a static controller).
	prof    *ctlProfile
	ctlSeed int64
}

// trial is one timed slice of the run. It ends at a query boundary (on
// ctl-profiles, at the end of the job list, so every trial runs the same
// mix), so its throughput counts only whole queries and its wall time is
// exactly the time they took.
type trial struct {
	wall    time.Duration
	cpu     time.Duration
	tuples  int64
	blocks  int64
	queries int64
	// nextNS is the time spent waiting for blocks (sum of the samples);
	// wall minus it is open/close and loop overhead.
	nextNS int64
	// speed is the machine's speed over the trial as the yardstick read
	// it, 1 where the workload is not scaled.
	speed float64
}

// add folds another trial's figures into t.
func (t *trial) add(o trial) {
	t.wall += o.wall
	t.cpu += o.cpu
	t.tuples += o.tuples
	t.blocks += o.blocks
	t.queries += o.queries
	t.nextNS += o.nextNS
}

// totals is what every trial of a measure call adds up to, for the
// output check and the failure count.
type totals struct {
	tuples, blocks   int64
	attempted        int64
	failed           int64
	retries, replays int64
	ingested         int64
	firstErr         error
}

// add folds another call's totals into t.
func (t *totals) add(o totals) {
	t.tuples += o.tuples
	t.blocks += o.blocks
	t.attempted += o.attempted
	t.failed += o.failed
	t.retries += o.retries
	t.replays += o.replays
	t.ingested += o.ingested
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *totals) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runJob executes one query and checks its tuple count.
func (st *stack) runJob(ctx context.Context, j job, tot *totals) (tuples, blocks int64) {
	var inner core.Controller
	if j.prof != nil {
		h, err := j.prof.controller(j.ctlSeed)
		if err != nil {
			tot.attempted++
			tot.fail(err)
			return 0, 0
		}
		inner = j.prof.arm(h, j.tgt.srv)
	} else {
		inner = core.NewStatic(st.w.block)
	}
	ctl := &timedCtl{inner: inner, samples: &st.samples, tr: st.tr, slot: st.cliSlot, push: st.w.push}
	tot.attempted++
	res, err := j.tgt.client.Run(ctx, j.tgt.query, ctl, client.MetricPerTuple, j.prof != nil)
	switch {
	case err != nil:
		tot.fail(fmt.Errorf("%s: query failed: %w", st.w.name, err))
		return 0, 0
	case res.Tuples != j.tgt.ref.sum.rows:
		tot.fail(fmt.Errorf("%s: query delivered %d tuples, relation has %d", st.w.name, res.Tuples, j.tgt.ref.sum.rows))
	}
	tot.retries += int64(res.Retries)
	tot.replays += int64(res.Replays)
	tot.tuples += int64(res.Tuples)
	tot.blocks += int64(res.Blocks)
	return int64(res.Tuples), int64(res.Blocks)
}

// runUntil runs the job list through, whole queries back to back, again
// and again until deadline has passed — always at least once — and
// returns that as one trial. It stops early once an operation has failed.
func (st *stack) runUntil(ctx context.Context, deadline time.Time, tot *totals) trial {
	if st.tr != nil {
		st.tr.on.Store(true)
		defer st.tr.on.Store(false)
	}
	t0, cpu0, s0 := time.Now(), cpuTime(), len(st.samples)
	var tr trial
	for {
		tuples, blocks := st.runJob(ctx, st.jobs[st.nextJob], tot)
		st.nextJob = (st.nextJob + 1) % len(st.jobs)
		tr.tuples += tuples
		tr.blocks += blocks
		tr.queries++
		if tot.failed > 0 || st.nextJob == 0 && !time.Now().Before(deadline) {
			break
		}
	}
	tr.wall, tr.cpu, tr.speed = time.Since(t0), cpuTime()-cpu0, 1
	for _, ns := range st.samples[s0:] {
		tr.nextNS += ns
	}
	return tr
}

// measure runs the closed-loop reader for about total as back-to-back
// trials of trialLen, each closing at the first query boundary past it.
// Short trials and a median over them keep a stall — a collection, a
// replication batch, a neighbour on the host — in the few trials it hit.
// Where the workload is scaled, a yardstick slice runs before and after
// every trial and the trial's block waits are scaled by the mean of the
// two. The open-loop writer, where the workload has one, runs beside the
// reader for the whole call.
func (st *stack) measure(ctx context.Context, total time.Duration, yard *yardstick) ([]trial, totals, error) {
	var tot totals
	var trials []trial
	var err error
	stopWriter := st.startWriter(ctx)
	before := 1.0
	if yard != nil {
		before, err = yard.run(yardstickSlice)
	}
	for end := time.Now().Add(total); err == nil && tot.failed == 0 && time.Now().Before(end); {
		s0 := len(st.samples)
		tr := st.runUntil(ctx, time.Now().Add(trialLen), &tot)
		if yard != nil {
			var after float64
			after, err = yard.run(yardstickSlice)
			tr.speed, before = (before+after)/2, after
			for i := s0; i < len(st.samples); i++ {
				st.samples[i] = int64(float64(st.samples[i]) * tr.speed)
			}
		}
		trials = append(trials, tr)
	}
	stopWriter(&tot)
	if err == nil {
		err = tot.firstErr
	}
	return trials, tot, err
}

// startWriter starts the workload's open-loop writer, if it has one, and
// returns the function that stops it, waits for it and adds its counts
// to tot.
func (st *stack) startWriter(ctx context.Context) (stop func(tot *totals)) {
	if !st.w.ingest {
		return func(*totals) {}
	}
	var ing ingestResult
	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ing = st.runWriter(ctx, quit)
	}()
	return func(tot *totals) {
		close(quit)
		wg.Wait()
		tot.attempted += ing.attempted
		tot.failed += ing.failed
		tot.ingested += ing.tuples
		if tot.firstErr == nil {
			tot.firstErr = ing.err
		}
	}
}

type ingestResult struct {
	attempted, failed, tuples int64
	err                       error
}

// runWriter is the open-loop ingest generator: one block of ingestRows
// customer rows into "sink" every ingestPeriod, on its own connection,
// whether or not the previous block has been acknowledged in time. Each
// block is timed from when it was due, so a stall charges every block it
// delays. It stops after the block in flight when stop closes, and
// checks the server-confirmed tuple count on close.
func (st *stack) runWriter(ctx context.Context, stop <-chan struct{}) (res ingestResult) {
	tgt := st.targets[0]
	fail := func(err error) ingestResult {
		res.failed++
		res.err = fmt.Errorf("%s: ingest: %w", st.w.name, err)
		return res
	}
	res.attempted++
	sess, err := tgt.client.OpenPush(ctx, "sink")
	if err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(st.cfg.seed))
	rows := tgt.ref.rows
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * ingestPeriod)
		select {
		case <-stop:
			res.attempted++
			confirmed, err := sess.Close(ctx)
			if err != nil {
				return fail(err)
			}
			if int64(confirmed) != res.tuples {
				return fail(fmt.Errorf("server confirmed %d tuples, writer sent %d", confirmed, res.tuples))
			}
			return res
		case <-time.After(time.Until(due)):
		}
		off := rng.Intn(len(rows) - ingestRows + 1)
		res.attempted++
		if _, err := sess.Send(ctx, tgt.ref.schema, rows[off:off+ingestRows]); err != nil {
			return fail(err)
		}
		res.tuples += ingestRows
		st.ingestLat = append(st.ingestLat, int64(time.Since(due)))
	}
}

// median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentileMS returns the q-quantile of sorted nanosecond samples, in
// milliseconds.
func percentileMS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// overTrials maps f over the trials and returns the median.
func overTrials(trials []trial, f func(trial) float64) float64 {
	xs := make([]float64, len(trials))
	for i, t := range trials {
		xs[i] = f(t)
	}
	return median(xs)
}
