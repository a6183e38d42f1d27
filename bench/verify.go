package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// rowSum is an order-sensitive FNV-1a fold over every cell of every row
// it is shown, plus the row count. Two sequences of rows have the same
// sum only if they are the same rows in the same order (up to hash
// collisions), which is what "the transfer delivered the relation"
// means.
type rowSum struct {
	hash uint64
	rows int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *rowSum) reset() { s.hash, s.rows = fnvOffset, 0 }

func (s *rowSum) mix(v uint64) {
	for i := 0; i < 8; i++ {
		s.hash = (s.hash ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func (s *rowSum) add(rows []minidb.Row) {
	for _, r := range rows {
		for _, v := range r {
			s.mix(uint64(v.Kind))
			if v.Null {
				s.mix(1)
				continue
			}
			s.mix(uint64(v.I))
			s.mix(math.Float64bits(v.F))
			s.mix(uint64(len(v.S)))
			for i := 0; i < len(v.S); i++ {
				s.hash = (s.hash ^ uint64(v.S[i])) * fnvPrime
			}
		}
		s.rows++
	}
}

// reference is what a query must deliver, computed straight from minidb
// with no service, codec or socket involved.
type reference struct {
	rows   []minidb.Row
	schema minidb.Schema
	sum    rowSum
}

func referenceOf(cat *minidb.Catalog, q client.Query) (reference, error) {
	it, err := cat.Execute(minidb.Query{Table: q.Table, Columns: q.Columns})
	if err != nil {
		return reference{}, err
	}
	rows, err := minidb.Collect(it)
	if err != nil {
		return reference{}, err
	}
	ref := reference{rows: rows, schema: it.Schema()}
	ref.sum.reset()
	ref.sum.add(rows)
	return ref, nil
}

// hashCodec decodes through the real codec and folds every decoded row
// into sum. A verifier client built on it pulls through the identical
// servers, sockets and transport as the measured client — including the
// push transport, whose rows client.Run does not otherwise expose.
type hashCodec struct {
	wire.Codec
	sum *rowSum
}

func (c hashCodec) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	return c.DecodeScratch(r, nil)
}

func (c hashCodec) DecodeScratch(r io.Reader, s *wire.Scratch) (minidb.Schema, []minidb.Row, error) {
	schema, rows, err := wire.DecodeBlock(c.Codec, r, s)
	if err == nil {
		c.sum.add(rows)
	}
	return schema, rows, err
}

// verifyThrough pulls q's whole result through v and compares every row
// with the reference.
func verifyThrough(ctx context.Context, v *client.Client, sum *rowSum, q client.Query, block int, ref *reference, what string) error {
	sum.reset()
	res, err := v.Run(ctx, q, core.NewStatic(block), client.MetricPerTuple, false)
	if err != nil {
		return fmt.Errorf("verify %s: %w", what, err)
	}
	if res.Tuples != ref.sum.rows || *sum != ref.sum {
		return fmt.Errorf("verify %s: delivered %d tuples (hash %016x), minidb has %d (hash %016x)",
			what, res.Tuples, sum.hash, ref.sum.rows, ref.sum.hash)
	}
	return nil
}

// verify is the untimed output check every workload starts with: the
// whole result, through the whole stack, row for row. On workloads with
// a cache it is also what warms it; on the gateway workload each backend
// is first pulled directly, because the ring places a session on one
// backend and both must be warm (cache keys are content-addressed, so a
// direct pull fills the entries a gateway session will hit).
func (st *stack) verify(ctx context.Context) error {
	for i, tgt := range st.targets {
		if st.gw != nil {
			for _, url := range st.backends {
				sum := new(rowSum)
				direct, err := client.New(url, hashCodec{Codec: st.codec, sum: sum}, st.hc)
				if err != nil {
					return err
				}
				if err := verifyThrough(ctx, direct, sum, tgt.query, st.w.block, &tgt.ref, "backend "+url); err != nil {
					return err
				}
			}
		}
		if err := verifyThrough(ctx, tgt.verifier, tgt.sum, tgt.query, st.w.block, &tgt.ref, fmt.Sprintf("%s target %d", st.w.name, i)); err != nil {
			return err
		}
	}
	if st.w.ctl {
		if err := st.costRatioPass(ctx); err != nil {
			return err
		}
	}
	st.base = st.serverStats()
	return nil
}

// reconcile compares what the servers say they served since the last
// check (or set-up) with what the client counted over the timed trials.
func (st *stack) reconcile(tot totals) error {
	got := st.serverStats()
	if d := got.TuplesServed - st.base.TuplesServed; d != tot.tuples {
		return fmt.Errorf("%s: servers report %d tuples served, client counted %d", st.w.name, d, tot.tuples)
	}
	if st.w.push {
		if d := got.PushFramesSent - st.base.PushFramesSent; d != tot.blocks {
			return fmt.Errorf("%s: servers report %d push frames sent, client counted %d blocks", st.w.name, d, tot.blocks)
		}
	}
	if st.w.ingest {
		if d := got.TuplesIngested - st.base.TuplesIngested; d != tot.ingested {
			return fmt.Errorf("%s: servers report %d tuples ingested, writer sent %d", st.w.name, d, tot.ingested)
		}
	}
	st.base = got
	return nil
}
