package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wsopt/internal/core"
)

// This file is the one transfer engine (DESIGN.md "Transfer engine"):
// Algorithm 1's loop — pick a size, pull a block, time it, feed the
// controller — and the per-block accounting exist here once. Run,
// RunPipelined and every RunVector chunk are configurations of
// run.transfer.

// run is the accounting state of one transfer: the controller it drives,
// what that controller observes, and the result the blocks add up to.
type run struct {
	c           *Client
	ctl         core.Controller
	metric      Metric
	useInjected bool
	res         *RunResult
	// mu guards ctl, win and res: RunVector shares them across its stream
	// workers, and a streaming session reads win from the prefetcher.
	mu sync.Mutex
	// win is the credit window of the latest size decision.
	win int
}

// size asks the controller for its operating point and returns the block
// size of the next pull. It is the one read per pull, as Algorithm 1 has
// one Size call per block: a wrapper that times a decision (bench/'s
// timedCtl) opens its iteration there, so a streaming session gets the
// window that came with the size, not a read of its own.
func (r *run) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := core.VectorOf(r.ctl)
	r.win = v.Window
	return v.Size
}

// window is the push credit window of the latest decision; 0 (the
// controller has no window knob) leaves the configured default.
func (r *run) window() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.win
}

// account is the one per-block accounting point: it adds a block
// requested at size to the result and feeds the controller its
// observation — wall time by default, the scale-free injected delay when
// the run asked for it and the server reported one, per tuple or per
// block. Callers hold r.mu.
func (r *run) account(size int, blk *Block) {
	res := r.res
	res.Tuples += blk.Tuples
	res.Blocks++
	res.Elapsed += blk.Elapsed
	res.SimulatedMS += blk.InjectedMS
	res.Sizes = append(res.Sizes, size)
	res.Retries += blk.Attempts - 1
	if blk.Replayed {
		res.Replays++
	}

	y := float64(blk.Elapsed) / float64(time.Millisecond)
	if r.useInjected && blk.InjectedMS > 0 {
		y = blk.InjectedMS
	}
	if r.metric == MetricPerTuple {
		y /= float64(blk.Tuples)
	}
	r.ctl.Observe(y)
}

// fetched is one pull's outcome with everything session-derived captured
// at fetch time: under prefetch the session has moved on (or failed over
// to a fresh server session) by the time the block is handed off. A nil
// blk with a nil err is the empty done marker that ends the result set.
type fetched struct {
	blk     *Block
	size    int
	seq     uint64
	session string
	err     error
}

// fetch is the engine's one pull. clone detaches the rows from the
// session's decode scratch, for a handler that reads them while or after
// the next pull reuses it.
func fetch(ctx context.Context, sess *Session, size int, clone bool) fetched {
	blk, err := sess.Next(ctx, size)
	switch {
	case err != nil:
		return fetched{err: err}
	case blk.Tuples > 0:
		if clone {
			blk = blk.Clone()
		}
		return fetched{blk: blk, size: size, seq: sess.seq, session: sess.id}
	case blk.Done:
		return fetched{}
	}
	// A correct server only sends an empty block as the done marker;
	// accepting one here would report a truncated result as success.
	return fetched{err: fmt.Errorf("client: server returned an empty block without the done flag (session %s, after %d tuples)", sess.id, sess.committed)}
}

// handOff accounts one fetched block, lets the controller observe it and
// writes its event — after the observation, so the event carries the
// decision the block produced. Accounting happens here, at hand-off, not
// at fetch: a prefetched block the run abandons never shows in a result.
func (r *run) handOff(f *fetched) error {
	blk, sink := f.blk, r.c.events
	var ev BlockEvent
	r.mu.Lock()
	r.account(f.size, blk)
	if sink != nil {
		ev = BlockEvent{
			Session:    f.session,
			Seq:        f.seq,
			Size:       f.size,
			Tuples:     blk.Tuples,
			Bytes:      blk.Bytes,
			RTTMS:      float64(blk.Elapsed.Microseconds()) / 1000,
			InjectedMS: blk.InjectedMS,
			Decision:   r.ctl.Size(),
			Phase:      core.PhaseOf(r.ctl),
			Retries:    blk.Attempts - 1,
			Replayed:   blk.Replayed,
			Done:       blk.Done,
			Controller: r.ctl.Name(),
			Endpoint:   blk.Endpoint,
			Failovers:  blk.Failovers,
		}
	}
	r.mu.Unlock()
	if sink == nil {
		return nil
	}
	return sink.Write(ev)
}

// transfer is the block loop: it moves the session's whole result,
// pulled or streamed as the session's way says, closes the session —
// behind the caller once the result is whole (Client.Wait joins that) —
// and returns how many tuples it handed off. Session moves and gateway
// failovers reach the controller as disturbances, a streaming session
// asks for the controller's credit window (run.window), and a pulling one
// promises its size when the controller holds it (core.HoldsSize).
//
// ahead == 0 runs lock-step on the caller's goroutine: every size
// decision sees the previous block's observation. ahead >= 1 starts a
// prefetcher that keeps up to ahead pulls beyond the hand-off point — one
// in flight, the rest buffered — so transfer overlaps handle. The
// prefetcher only pulls: sizes are decided here, one per hand-off, right
// after the observation and before handle runs, so a size is exactly
// ahead observations stale and the controller is never touched from two
// goroutines at once.
func (r *run) transfer(ctx context.Context, sess *Session, ahead int, handle BlockHandler) (tuples int, err error) {
	sess.stream.win = r.window
	r.mu.Lock()
	sess.hold = core.HoldsSize(r.ctl)
	r.mu.Unlock()
	sess.OnDisturbance = func(reason string) {
		r.mu.Lock()
		core.NotifyDisturbance(r.ctl, reason)
		r.mu.Unlock()
	}
	defer func() {
		r.mu.Lock()
		r.res.Failovers += sess.failovers
		r.mu.Unlock()
		// Best-effort cleanup; the session may already be gone. A finished
		// transfer does not wait for it: the result is whole, and the
		// close — a last credit POST to join, a DELETE round trip — carries
		// no block. An unfinished one closes before its error returns.
		if sess.Done() {
			r.c.background(30*time.Second, func(ctx context.Context) { _ = sess.Close(ctx) })
		} else {
			_ = sess.Close(context.WithoutCancel(ctx))
		}
	}()

	var sizes chan int // the prefetcher's pull permits; nil in lock-step
	consume := func(f fetched) error {
		if f.err != nil || f.blk == nil {
			return f.err
		}
		if err := r.handOff(&f); err != nil {
			return err
		}
		tuples += f.blk.Tuples
		if sizes != nil {
			sizes <- r.size()
		}
		if handle != nil {
			return handle(f.blk.Schema, f.blk.Rows())
		}
		return nil
	}
	clone := handle != nil
	if ahead == 0 {
		for !sess.Done() {
			if err := consume(fetch(ctx, sess, r.size(), clone)); err != nil {
				return tuples, err
			}
		}
		return tuples, nil
	}

	// Both channels are sized so that neither side ever blocks on a
	// send: a pull needs a permit, ahead permits are issued up front and
	// one more per hand-off, so at most ahead permits or fetched blocks
	// are ever waiting.
	cctx, stop := context.WithCancel(ctx)
	sizes = make(chan int, ahead)
	feed := make(chan fetched, ahead)
	go func() {
		defer close(feed)
		for size := range sizes {
			f := fetch(cctx, sess, size, clone)
			feed <- f
			if f.err != nil || sess.Done() {
				return
			}
		}
	}()
	// Stop the prefetcher and join it before the deferred Close touches
	// the session it is still using.
	defer func() {
		stop()
		close(sizes)
		for range feed {
		}
	}()
	for i := 0; i < ahead; i++ {
		sizes <- r.size()
	}
	for f := range feed {
		if err := consume(f); err != nil {
			return tuples, err
		}
	}
	return tuples, nil
}
