package client

import (
	"context"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
)

// The paper's introduction notes that block-based transfer lets
// "applications also benefit from pipelined parallel processing" — the
// next block can be in flight while the previous one is being processed.
// RunPipelined provides that overlap: the transfer engine's prefetcher
// keeps exactly one request outstanding while the caller's handler
// consumes the previous block. The controller still observes every
// block's transfer time, so block-size adaptation is unchanged.

// BlockHandler consumes one block's rows. Returning an error aborts the
// run.
type BlockHandler func(schema minidb.Schema, rows []minidb.Row) error

// PipelinedResult extends RunResult with the processing-overlap
// accounting.
type PipelinedResult struct {
	RunResult
	// ProcessTime is the total time spent inside the handler.
	ProcessTime time.Duration
	// WallTime is the end-to-end duration of the run. With effective
	// overlap, WallTime < Elapsed + ProcessTime.
	WallTime time.Duration
}

// RunPipelined executes Algorithm 1 with single-block prefetch: while the
// handler processes block n, block n+1 is already being pulled. The
// controller's decision for block n+1 is made from the measurements
// through block n, before the handler runs (one block of extra decision
// latency — the price of the overlap). The handler's rows are its own
// copy and may be retained.
func (c *Client) RunPipelined(ctx context.Context, q Query, ctl core.Controller, metric Metric, useInjected bool, handle BlockHandler) (*PipelinedResult, error) {
	sess, err := c.session(ctx, q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &PipelinedResult{}
	timed := handle
	if handle != nil {
		timed = func(schema minidb.Schema, rows []minidb.Row) error {
			t0 := time.Now()
			err := handle(schema, rows)
			res.ProcessTime += time.Since(t0)
			return err
		}
	}
	r := run{c: c, ctl: ctl, metric: metric, useInjected: useInjected, res: &res.RunResult}
	_, err = r.transfer(ctx, sess, 1, timed)
	res.WallTime = time.Since(start)
	return res, err
}
