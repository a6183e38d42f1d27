package main

import (
	"bytes"
	"runtime"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// isolated holds the per-layer figures that cannot be had by wrapping an
// interface — the time inside gzip, the scan inside the service handler,
// a cache lookup — and are instead measured by calling the layer's
// public functions alone, with the workload's own query, block size and
// codec.
type isolated struct {
	gzipShare      float64 // 1 − inner-only ÷ full encode time
	bytesPerTuple  float64
	allocsPerBlock float64 // encode + scratch decode
	scanUS         float64 // NextBlockAppend, per block
	cacheGetUS     float64 // Get + Release on an entry of the payload's size
}

const (
	// isoBlocks is how many blocks each isolated figure's median is
	// taken over; isoBudget caps the time one figure may take, so the
	// slow codec settles for fewer blocks rather than stretching the run.
	isoBlocks = 200
	isoBudget = 750 * time.Millisecond
)

// eachBlock calls f on the reference's blocks of the workload's size,
// cycling through the relation, until isoBlocks calls or isoBudget.
func eachBlock(ref *reference, size int, f func(rows []minidb.Row)) {
	start := time.Now()
	for n, off := 0, 0; n < isoBlocks && time.Since(start) < isoBudget; n++ {
		if off >= len(ref.rows) {
			off = 0
		}
		end := min(off+size, len(ref.rows))
		f(ref.rows[off:end])
		off = end
	}
}

func measureIsolated(w *workload, cat *minidb.Catalog, ref *reference, q minidb.Query) (isolated, error) {
	var iso isolated
	codec, err := wire.ByName(w.codec)
	if err != nil {
		return iso, err
	}

	// wire: full encode, inner-only encode, bytes, allocations.
	var buf bytes.Buffer
	var full, inner []float64
	var encBytes, encRows int
	gz, gzipped := codec.(wire.Gzipped)
	eachBlock(ref, w.block, func(rows []minidb.Row) {
		buf.Reset()
		t0 := time.Now()
		err = codec.Encode(&buf, ref.schema, rows)
		full = append(full, float64(time.Since(t0)))
		encBytes += buf.Len()
		encRows += len(rows)
	})
	if err != nil {
		return iso, err
	}
	if gzipped {
		eachBlock(ref, w.block, func(rows []minidb.Row) {
			buf.Reset()
			t0 := time.Now()
			err = gz.Inner.Encode(&buf, ref.schema, rows)
			inner = append(inner, float64(time.Since(t0)))
		})
		if err != nil {
			return iso, err
		}
		iso.gzipShare = 1 - median(inner)/median(full)
	}
	iso.bytesPerTuple = float64(encBytes) / float64(encRows)

	scratch := new(wire.Scratch)
	rd := bytes.NewReader(nil)
	var ms0, ms1 runtime.MemStats
	blocks := 0
	roundTrip := func(rows []minidb.Row) {
		buf.Reset()
		if err == nil {
			err = codec.Encode(&buf, ref.schema, rows)
		}
		rd.Reset(buf.Bytes())
		if err == nil {
			_, _, err = wire.DecodeBlock(codec, rd, scratch)
		}
		blocks++
	}
	roundTrip(ref.rows[:min(w.block, len(ref.rows))]) // size the scratch and prime the pools
	blocks = 0
	runtime.ReadMemStats(&ms0)
	eachBlock(ref, w.block, roundTrip)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return iso, err
	}
	iso.allocsPerBlock = float64(ms1.Mallocs-ms0.Mallocs) / float64(blocks)

	// minidb: the scan the service runs per uncached block.
	var scan []float64
	var it minidb.Iterator
	var batch []minidb.Row
	eachBlock(ref, w.block, func([]minidb.Row) {
		if it == nil {
			if it, err = cat.Execute(q); err != nil {
				return
			}
		}
		t0 := time.Now()
		rows, done, serr := minidb.NextBlockAppend(it, w.block, batch)
		scan = append(scan, float64(time.Since(t0)))
		batch = rows
		if serr != nil {
			err = serr
		}
		if done {
			it = nil
		}
	})
	if err != nil {
		return iso, err
	}
	iso.scanUS = median(scan) / 1e3

	// blockcache: lookups of resident entries of the payload's size.
	if w.cacheBytes > 0 {
		cache, err := blockcache.New(blockcache.Config{MemBytes: w.cacheBytes})
		if err != nil {
			return iso, err
		}
		payload := make([]byte, int(iso.bytesPerTuple*float64(w.block)))
		fp := blockcache.Fingerprint(w.name)
		const entries = 64
		keys := make([]blockcache.Key, entries)
		for i := range keys {
			keys[i] = blockcache.DeriveKey(fp, int64(i*w.block), w.block)
			ent, _, err := cache.GetOrFill(keys[i], func() (*blockcache.Entry, error) {
				return blockcache.NewEntry(payload, w.block, false), nil
			})
			if err != nil {
				return iso, err
			}
			ent.Release()
		}
		// One lookup is ~100 ns, below the clock's useful resolution:
		// time them a sweep of the keys at a time.
		var get []float64
		for n := 0; n < isoBlocks; n++ {
			t0 := time.Now()
			for _, k := range keys {
				cache.Get(k).Release()
			}
			get = append(get, float64(time.Since(t0))/entries)
		}
		iso.cacheGetUS = median(get) / 1e3
	}
	return iso, nil
}
