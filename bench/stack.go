package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/client"
	"wsopt/internal/gateway"
	"wsopt/internal/minidb"
	"wsopt/internal/replica"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// target is one client-facing endpoint and the query the reader runs
// against it. Every workload has one, except ctl-profiles, which has one
// per priced profile.
type target struct {
	client *client.Client
	// verifier is a second client on the same URL, HTTP pool and
	// transport settings whose codec hashes every decoded row.
	verifier *client.Client
	sum      *rowSum
	query    client.Query
	ref      reference
	srv      *service.Server // the backend behind it (nil behind a gateway)
}

// stack is one workload's whole system in this process: catalog,
// backends, optional gateway and delay proxy, and the client — all
// talking over loopback TCP.
type stack struct {
	w   *workload
	cfg runConfig
	tr  *tracer // nil: no wrappers anywhere
	// codec is the workload's codec, unwrapped; clientCodec is what the
	// measured client decodes with (the same, or its timing wrapper).
	codec, clientCodec wire.Codec

	cat      *minidb.Catalog
	servers  []*service.Server
	backends []string // backend base URLs, parallel to servers
	caches   []*blockcache.Cache
	gw       *gateway.Gateway
	targets  []*target
	jobs     []job
	nextJob  int // index into jobs of the next query to run
	hc       *http.Client
	closers  []func()

	// cliSlot is the client tier's current request id (traced only).
	cliSlot *reqSlot
	// samples collects every timed block's wait, pooled across trials.
	samples []int64
	// ingestLat collects the writer's due-to-ack times.
	ingestLat []int64
	// ctl holds the cost-ratio pass's outcome (ctl-profiles only).
	ctl ctlOutcome
	// base is the servers' counters at the last output check.
	base service.Stats
}

// newHTTPClient is a tier's HTTP client: the stock transport (as a nil
// http.Client would get) with its own connection pool and the timeout
// the tier defaults to — or, traced, the same transport wrapped for
// timing and no Client.Timeout. net/http enforces Client.Timeout through
// the request context only for its own transports; for any other
// RoundTripper it falls back to a timer and a goroutine per request,
// which alone costs the smallest-block workload over 10 % and would be
// charged to tracing. Every pull is still bounded by its own context.
func newHTTPClient(timeout time.Duration, timing *traceRT) (*http.Client, func()) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if timing != nil {
		timing.inner = t
		return &http.Client{Transport: timing}, t.CloseIdleConnections
	}
	return &http.Client{Timeout: timeout, Transport: t}, t.CloseIdleConnections
}

// buildStack constructs the workload's system. cat, when non-nil, is
// shared with another stack of the same run (the traced twin); nil loads
// a fresh dataset.
func buildStack(w *workload, cfg runConfig, cat *minidb.Catalog, tr *tracer) (st *stack, err error) {
	st = &stack{w: w, cfg: cfg, tr: tr, cat: cat}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.cat == nil {
		if st.cat, err = tpch.Load(cfg.sf); err != nil {
			return nil, err
		}
		if w.ingest {
			// An empty table of customer's schema, so the writer can
			// ship customer rows without touching the relation being read.
			if _, err = st.cat.CreateTable("sink", tpch.CustomerSchema()); err != nil {
				return nil, err
			}
		}
	}
	if st.codec, err = wire.ByName(w.codec); err != nil {
		return nil, err
	}
	st.clientCodec = st.codec

	var timing *traceRT
	if tr != nil {
		st.cliSlot = new(reqSlot)
		st.clientCodec = &traceCodec{inner: st.codec, tr: tr, enc: spWireIngest, dec: spWireDecode, decSlot: st.cliSlot}
		timing = &traceRT{tr: tr, slot: st.cliSlot, set: true, next: spClientHTTP, body: spClientBody, mgmt: spClientMgmt}
	}
	// 5 minutes is what client.New gives a nil http.Client.
	hc, closeIdle := newHTTPClient(5*time.Minute, timing)
	st.hc = hc
	st.closers = append(st.closers, closeIdle)

	if w.ctl {
		return st, st.buildCtl()
	}

	n := 1
	if w.gateway {
		n = 2
	}
	for i := 0; i < n; i++ {
		scfg := service.Config{Catalog: st.cat, Seed: cfg.seed + int64(i)}
		if w.gateway {
			scfg.Replica = replica.NewLog(replicaLogRecords)
			st.closers = append(st.closers, scfg.Replica.Close)
		}
		if _, err := st.addBackend(scfg); err != nil {
			return nil, err
		}
	}

	url := st.backends[0]
	srv := st.servers[0]
	if w.gateway {
		if url, err = st.addGateway(); err != nil {
			return nil, err
		}
		srv = nil
	}
	if w.oneWayDelay > 0 {
		p, err := newDelayProxy(strings.TrimPrefix(url, "http://"), w.oneWayDelay)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, p.Close)
		url = "http://" + p.Addr()
	}
	tgt, err := st.addTarget(url, client.Query{Table: w.table}, srv)
	if err != nil {
		return nil, err
	}
	st.jobs = []job{{tgt: tgt}}
	return st, nil
}

// addBackend starts one service.Server on a loopback listener, with a
// cache when the workload has one, wrapped for timing when traced.
func (st *stack) addBackend(scfg service.Config) (*service.Server, error) {
	var cache *blockcache.Cache
	if st.w.cacheBytes > 0 {
		c, err := blockcache.New(blockcache.Config{MemBytes: st.w.cacheBytes})
		if err != nil {
			return nil, err
		}
		cache, scfg.Cache = c, c
	}
	slot := new(reqSlot)
	scfg.Codec = st.codec
	if st.tr != nil {
		scfg.Codec = &traceCodec{inner: st.codec, tr: st.tr, enc: spWireEncode, dec: spWireIngest, encSlot: slot}
	}
	srv, err := service.New(scfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if st.tr != nil {
		h = serviceHandler(h, st.tr, slot)
	}
	ts := httptest.NewServer(h)
	st.closers = append(st.closers, ts.Close)
	st.servers = append(st.servers, srv)
	st.backends = append(st.backends, ts.URL)
	st.caches = append(st.caches, cache)
	return srv, nil
}

// addGateway fronts the backends with gateway.New and starts its
// replication pullers; it returns the gateway's URL.
func (st *stack) addGateway() (string, error) {
	slot := new(reqSlot)
	var timing *traceRT
	if st.tr != nil {
		timing = &traceRT{tr: st.tr, slot: slot, next: spGatewayUpstream, body: spGatewayUpstream, mgmt: spGatewayMgmt}
	}
	// 2 minutes is gateway.New's own default for a nil Config.HTTP.
	ghc, closeIdle := newHTTPClient(2*time.Minute, timing)
	gw, err := gateway.New(gateway.Config{Backends: st.backends, HTTP: ghc})
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	h := gw.Handler()
	if st.tr != nil {
		h = gatewayHandler(h, st.tr, slot)
	}
	ts := httptest.NewServer(h)
	// Closers run in reverse: the gateway's listener goes first, then
	// its pullers stop, then its backend connections close.
	st.closers = append(st.closers, closeIdle, cancel, ts.Close)
	st.gw = gw
	return ts.URL, nil
}

// addTarget builds the reader's client for url plus its verifying twin
// and computes the query's reference straight from minidb.
func (st *stack) addTarget(url string, q client.Query, srv *service.Server) (*target, error) {
	c, err := client.New(url, st.clientCodec, st.hc)
	if err != nil {
		return nil, err
	}
	sum := new(rowSum)
	v, err := client.New(url, hashCodec{Codec: st.codec, sum: sum}, st.hc)
	if err != nil {
		return nil, err
	}
	for _, cl := range []*client.Client{c, v} {
		// cmd/wsquery's defaults: a block whose pull outlives the adaptive
		// deadline is re-requested under the same seq, not failed. The
		// gateway workload needs it — a replication feed batch can hold
		// both processors past the 1 s deadline floor — and it shows up as
		// client.retries and in the latency tail, not as a failed query.
		cl.SetRetry(client.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond})
		if st.w.push {
			cl.SetPush(client.PushConfig{Enabled: true})
		}
	}
	ref, err := referenceOf(st.cat, q)
	if err != nil {
		return nil, err
	}
	tgt := &target{client: c, verifier: v, sum: sum, query: q, ref: ref, srv: srv}
	st.targets = append(st.targets, tgt)
	return tgt, nil
}

// close tears the stack down and returns once every listener, relay and
// puller it started has stopped.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// serverStats sums the backends' counters the output check and the
// per-layer metrics read.
func (st *stack) serverStats() service.Stats {
	var sum service.Stats
	for _, srv := range st.servers {
		s := srv.Stats()
		sum.TuplesServed += s.TuplesServed
		sum.PushFramesSent += s.PushFramesSent
		sum.TuplesIngested += s.TuplesIngested
		sum.PushCreditGrants += s.PushCreditGrants
		sum.PushCreditStalls += s.PushCreditStalls
		sum.BlocksReplayed += s.BlocksReplayed
		sum.SessionsShed += s.SessionsShed
	}
	return sum
}

// cacheStats sums the backends' cache snapshots (zero without a cache).
func (st *stack) cacheStats() blockcache.Stats {
	var sum blockcache.Stats
	for _, c := range st.caches {
		if c == nil {
			continue
		}
		s := c.Stats()
		sum.MemHits += s.MemHits
		sum.DiskHits += s.DiskHits
		sum.Misses += s.Misses
		sum.MemEvictions += s.MemEvictions
		sum.MemBytes += s.MemBytes
	}
	return sum
}
