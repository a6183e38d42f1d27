package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wsopt/internal/minidb"
)

// runConfig is one invocation's settings. seed, seconds and trace come
// from the command line; the rest are fixed there and shrunk only by the
// smoke test.
type runConfig struct {
	seed    int64
	seconds float64
	// trace selects the phases: 0 end-to-end only, 1 per-layer only,
	// 2 both (end-to-end first, on the same stack).
	trace int
	// sf is the TPC-H scale factor of the dataset.
	sf float64
	// epochs is how many times the whole stack is built afresh; seconds
	// is divided among them.
	epochs int
	// outDir receives trace-<workload>.jsonl.
	outDir string
}

// result is what one workload's run reports.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	// notes are the sample counts behind the percentiles and the
	// per-layer table.
	notes []string
	// tracedBlocks is how many blocks the per-layer table is over.
	tracedBlocks int64
}

// runWorkload measures one workload over cfg.epochs epochs. An epoch
// builds the whole system from nothing — dataset, servers, gateway,
// proxy, client — checks its output with the verification pass (which
// is also the warm-up: it pulls the whole relation through the whole
// stack), then runs its share of the timed seconds as short trials.
//
// Epochs make setup_s a median of real set-ups, and they keep one
// instance's luck — which connections, goroutines and heap addresses it
// drew — from owning the whole run: the medians are over trials on
// several instances.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (result, error) {
	res := result{workload: w.name, metrics: map[string]float64{}}
	check := func(tot totals, s *stack) error {
		res.attempted += tot.attempted
		res.failed += tot.failed
		if tot.firstErr != nil {
			return tot.firstErr
		}
		return s.reconcile(tot)
	}

	var (
		setupS  []float64
		trials  []trial
		samples []int64
		layers  *layerAcc
		yard    *yardstick
	)
	if cfg.trace != 0 {
		layers = &layerAcc{tr: newTracer(w)}
	}
	if w.yardstick && cfg.trace != 1 {
		var err error
		if yard, err = newYardstick(); err != nil {
			return res, err
		}
		defer yard.close()
	}
	share := secs(cfg.seconds) / time.Duration(cfg.epochs)
	for e := 0; e < cfg.epochs; e++ {
		t0 := time.Now()
		st, err := buildStack(w, cfg, nil, nil)
		if err != nil {
			return res, err
		}
		err = st.verify(ctx)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && cfg.trace != 1 {
			ts, tot, merr := st.measure(ctx, share, yard)
			if err = check(tot, st); err == nil {
				err = merr
			}
			trials = append(trials, ts...)
			samples = append(samples, st.samples...)
			st.samples = st.samples[:0]
		}
		if err == nil && cfg.trace != 0 {
			err = layers.epoch(ctx, st, share, check)
		}
		st.close()
		if err != nil {
			return res, err
		}
		// The next epoch starts from a collected heap, as the first did.
		runtime.GC()
	}

	if cfg.trace != 1 {
		lat := sortedCopy(samples)
		rate := func(t trial) float64 { return float64(t.tuples) / t.wall.Seconds() }
		res.metrics["tuples_per_s"] = overTrials(trials, func(t trial) float64 { return rate(t) / t.speed })
		res.metrics["block_p90_ms"] = percentileMS(lat, 0.90)
		res.metrics["setup_s"] = median(setupS)
		res.notes = append(res.notes, fmt.Sprintf("block latency over %d samples; medians over %d trials on %d epochs", len(lat), len(trials), cfg.epochs))
		if yard != nil {
			res.notes = append(res.notes, fmt.Sprintf("tuples_per_s and block_p90_ms are scaled to yardstick speed 1; the machine ran at %.3f, unscaled %.0f tuples/s (medians over the trials)",
				overTrials(trials, func(t trial) float64 { return t.speed }), overTrials(trials, rate)))
		}
	}
	if cfg.trace != 0 {
		if err := layers.report(w, cfg, &res); err != nil {
			return res, err
		}
	}
	res.correct = res.failed == 0
	return res, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }

// layerChunk is how long one arm of the per-layer phase runs before the
// other takes over (it always finishes its query).
const layerChunk = 250 * time.Millisecond

// layerAcc accumulates the per-layer phase over the epochs: both arms'
// trials, the tracer's spans, and the deltas of every counter read from
// public Stats() over the traced arm.
type layerAcc struct {
	tr *tracer

	plain, traced       trial
	plainTot, tracedTot totals
	samples             []int64 // traced arm's block waits
	ingestLat           []int64

	mem        runtime.MemStats // deltas over the plain arm
	heapSysMax uint64

	cacheHits, cacheMisses, cacheEvictions int64
	cacheResident                          int64
	creditGrants, creditStalls             int64
	blocksReplayed, sessionsShed           int64
	gwFailovers, gwFallbackReplays         int64
	lagMax                                 uint64

	ctl ctlOutcome
	// ref, query and cat are the last epoch's, for the isolated
	// measurements.
	ref   reference
	query minidb.Query
	cat   *minidb.Catalog
}

// epoch builds the traced twin of plain on the same dataset, verifies it
// (the wrappers must not change a byte) and alternates untraced and
// traced chunks for about d. Alternating a chunk at a time makes GC
// phases and machine drift land on both arms alike. The writer, where
// there is one, runs through the traced stack for the whole epoch: the
// arms share the catalog, so its version bumps reach both caches.
func (a *layerAcc) epoch(ctx context.Context, plain *stack, d time.Duration, check func(totals, *stack) error) error {
	traced, err := buildStack(plain.w, plain.cfg, plain.cat, a.tr)
	if err != nil {
		return err
	}
	defer traced.close()
	if err := traced.verify(ctx); err != nil {
		return fmt.Errorf("traced stack: %w", err)
	}

	// The gateway's replication lag is a level, not a counter: poll it.
	var poller sync.WaitGroup
	stopPoll := make(chan struct{})
	if traced.gw != nil {
		poller.Add(1)
		go func() {
			defer poller.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					for _, b := range traced.gw.Stats().Backends {
						a.lagMax = max(a.lagMax, b.LagRecords)
					}
				}
			}
		}()
	}

	cache0, srv0 := traced.cacheStats(), traced.serverStats()
	stopWriter := traced.startWriter(ctx)
	var plainTot, tracedTot totals
	var m0, m1 runtime.MemStats
	for start := time.Now(); time.Since(start) < d && plainTot.failed+tracedTot.failed == 0; {
		runtime.ReadMemStats(&m0)
		a.plain.add(plain.runUntil(ctx, time.Now().Add(layerChunk), &plainTot))
		runtime.ReadMemStats(&m1)
		a.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
		a.mem.Mallocs += m1.Mallocs - m0.Mallocs
		a.mem.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
		a.traced.add(traced.runUntil(ctx, time.Now().Add(layerChunk), &tracedTot))
	}
	stopWriter(&tracedTot)
	close(stopPoll)
	poller.Wait()
	if err := check(plainTot, plain); err != nil {
		return err
	}
	if err := check(tracedTot, traced); err != nil {
		return err
	}

	a.heapSysMax = max(a.heapSysMax, m1.HeapSys)
	a.plainTot.add(plainTot)
	a.tracedTot.add(tracedTot)
	a.samples = append(a.samples, traced.samples...)
	a.ingestLat = append(a.ingestLat, traced.ingestLat...)
	plain.samples = plain.samples[:0]

	cache1, srv1 := traced.cacheStats(), traced.serverStats()
	a.cacheHits += cache1.MemHits + cache1.DiskHits - cache0.MemHits - cache0.DiskHits
	a.cacheMisses += cache1.Misses - cache0.Misses
	a.cacheEvictions += cache1.MemEvictions - cache0.MemEvictions
	a.cacheResident = cache1.MemBytes
	a.creditGrants += srv1.PushCreditGrants - srv0.PushCreditGrants
	a.creditStalls += srv1.PushCreditStalls - srv0.PushCreditStalls
	a.blocksReplayed += srv1.BlocksReplayed - srv0.BlocksReplayed
	a.sessionsShed += srv1.SessionsShed - srv0.SessionsShed
	if traced.gw != nil {
		gs := traced.gw.Stats()
		a.gwFailovers += gs.Failovers
		a.gwFallbackReplays += gs.FallbackReplays
	}
	a.ctl = plain.ctl
	tgt := traced.targets[0]
	a.ref, a.cat = tgt.ref, traced.cat
	a.query = minidb.Query{Table: tgt.query.Table, Columns: tgt.query.Columns}
	return nil
}

// report turns what the epochs accumulated into every per-layer metric,
// prints the per-layer table into res.notes and writes the spans.
func (a *layerAcc) report(w *workload, cfg runConfig, res *result) error {
	iso, err := measureIsolated(w, a.cat, &a.ref, a.query)
	if err != nil {
		return fmt.Errorf("isolated layer measurements: %w", err)
	}
	tr := a.tr
	blocks := float64(a.tracedTot.blocks)
	perBlockMS := func(ns int64) float64 { return float64(ns) / 1e6 / blocks }
	m := res.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}

	total, count := tr.snapshot()
	self := tr.selfTimes()
	lat := sortedCopy(a.samples)
	stalled := 0
	for _, ns := range lat {
		if ns >= int64(time.Millisecond) {
			stalled++
		}
	}
	m["client.next_ms_p50"] = percentileMS(lat, 0.50)
	m["client.next_ms_p95"] = percentileMS(lat, 0.95)
	m["client.next_ms_p99"] = percentileMS(lat, 0.99)
	m["client.self_ms_per_block"] = perBlockMS(self[spClientNext])
	m["client.http_ms_per_block"] = perBlockMS(self[spClientHTTP] + self[spClientBody])
	m["client.open_close_ms_per_query"] = (ms(a.traced.wall) - float64(a.traced.nextNS)/1e6) / float64(a.traced.queries)
	m["client.stalled_next_frac"] = float64(stalled) / float64(len(lat))
	m["client.retries"] = float64(a.tracedTot.retries)
	m["client.replays"] = float64(a.tracedTot.replays)

	m["wire.encode_ms_per_block"] = perBlockMS(total[spWireEncode])
	m["wire.decode_ms_per_block"] = perBlockMS(self[spWireDecode])
	m["wire.gzip_share"] = iso.gzipShare
	m["wire.bytes_per_tuple"] = iso.bytesPerTuple
	m["wire.allocs_per_block"] = iso.allocsPerBlock
	m["minidb.scan_us_per_block"] = iso.scanUS

	// Blocks the backends scanned: all of them without a cache, the
	// misses with one. Their isolated scan time comes out of the
	// handler's self time.
	scanned := blocks
	if w.cacheBytes > 0 {
		scanned = float64(a.cacheMisses)
		if lookups := a.cacheHits + a.cacheMisses; lookups > 0 {
			m["blockcache.hit_ratio"] = float64(a.cacheHits) / float64(lookups)
		}
		m["blockcache.get_us"] = iso.cacheGetUS
		m["blockcache.misses"] = float64(a.cacheMisses)
		m["blockcache.evictions"] = float64(a.cacheEvictions)
		m["blockcache.resident_mb"] = float64(a.cacheResident) / (1 << 20)
	}
	scanNS := int64(iso.scanUS * 1e3 * scanned)

	m["service.next_ms_per_block"] = perBlockMS(total[spServiceNext])
	m["service.self_ms_per_block"] = perBlockMS(self[spServiceNext] - scanNS)
	if count[spServiceCreate] > 0 {
		m["service.create_ms"] = float64(total[spServiceCreate]) / 1e6 / float64(count[spServiceCreate])
	}
	if count[spServiceIngest] > 0 {
		m["service.ingest_ms_per_block"] = float64(total[spServiceIngest]) / 1e6 / float64(count[spServiceIngest])
	}
	m["service.credit_grants_per_block"] = float64(a.creditGrants) / blocks
	m["service.credit_stalls_per_block"] = float64(a.creditStalls) / blocks
	m["service.blocks_replayed"] = float64(a.blocksReplayed)
	m["service.sessions_shed"] = float64(a.sessionsShed)

	if w.gateway {
		m["gateway.next_ms_per_block"] = perBlockMS(total[spGatewayNext])
		m["gateway.upstream_ms_per_block"] = perBlockMS(total[spGatewayUpstream])
		m["gateway.self_ms_per_block"] = perBlockMS(self[spGatewayNext])
		m["gateway.failovers"] = float64(a.gwFailovers)
		m["gateway.fallback_replays"] = float64(a.gwFallbackReplays)
		m["replica.feed_busy_frac"] = float64(total[spReplicaFeed]) / float64(a.traced.wall)
		m["replica.lag_records_max"] = float64(a.lagMax)
	}

	m["core.decide_us_per_block"] = float64(total[spCoreDecide]) / 1e3 / blocks
	if w.ctl {
		for name, r := range a.ctl.ratio {
			m["core.cost_ratio."+name] = r
		}
		m["core.settle_blocks"] = a.ctl.settle
		m["ctl_cost_ratio"] = a.ctl.mean
	}
	if w.ingest {
		m["ingest_p50_ms"] = percentileMS(sortedCopy(a.ingestLat), 0.50)
	}

	m["proc.cpu_ms_per_ktuple"] = ms(a.plain.cpu) / (float64(a.plain.tuples) / 1000)
	m["proc.alloc_bytes_per_tuple"] = float64(a.mem.TotalAlloc) / float64(a.plainTot.tuples)
	m["proc.allocs_per_block"] = float64(a.mem.Mallocs) / float64(a.plainTot.blocks)
	m["proc.gc_pause_ms_per_s"] = float64(a.mem.PauseTotalNs) / 1e6 / a.plain.wall.Seconds()
	m["proc.peak_heap_mb"] = float64(a.heapSysMax) / (1 << 20)

	plainRate := float64(a.plain.tuples) / a.plain.wall.Seconds()
	tracedRate := float64(a.traced.tuples) / a.traced.wall.Seconds()
	m["trace.overhead_frac"] = 1 - tracedRate/plainRate

	// The table: every row is a layer's own time on the block path, and
	// together they must add up to what the client waited. Self times
	// telescope to client.next exactly, so the only way to miss is a row
	// that went negative — children that overlap their parent's end, or
	// an isolated scan figure larger than the handler it came out of —
	// and such a row is clipped to zero and counted as unattributed.
	rows := []struct {
		name string
		ns   int64
	}{
		{"client (self)", self[spClientNext]},
		{"client.http (sockets, net/http)", self[spClientHTTP] + self[spClientBody]},
		{"wire.decode", self[spWireDecode]},
		{"core.decide", self[spCoreDecide]},
		{"gateway (self)", self[spGatewayNext]},
		{"gateway.upstream (sockets, net/http)", self[spGatewayUpstream]},
		{"service (self)", self[spServiceNext] - scanNS},
		{"minidb.scan", scanNS},
		{"wire.encode", self[spWireEncode]},
	}
	var sum int64
	table := fmt.Sprintf("%s: where a block's %.4f ms go (traced chunks, %d blocks)\n", w.name, perBlockMS(total[spClientNext]), a.tracedTot.blocks)
	for _, r := range rows {
		if r.ns == 0 {
			continue
		}
		table += fmt.Sprintf("  %-38s %10.4f ms/block\n", r.name, perBlockMS(r.ns))
		sum += max(r.ns, 0)
	}
	unattributed := float64(sum-total[spClientNext]) / float64(total[spClientNext])
	if unattributed < 0 {
		unattributed = -unattributed
	}
	m["trace.unattributed_frac"] = unattributed
	res.tracedBlocks = a.tracedTot.blocks
	res.notes = append(res.notes, table, fmt.Sprintf("client.next_ms_p99 over %d samples", len(lat)))
	if w.ingest {
		res.notes = append(res.notes, fmt.Sprintf("ingest_p50_ms over %d sends", len(a.ingestLat)))
	}

	if err := tr.writeJSONL(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
