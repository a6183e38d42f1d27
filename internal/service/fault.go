package service

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
)

// Fault injection reproduces the flaky-WAN conditions of the paper's
// PlanetLab testbed at the transport level: a configurable fraction of
// block responses is dropped mid-flight, truncated, or refused with a
// 503. Combined with the seq/replay protocol this lets a chaos test
// assert exactly-once delivery under sustained connection failures.

// FaultConfig sets per-request fault probabilities for the block
// endpoints (pull and ingest). All probabilities are in [0, 1]; the
// zero value injects nothing.
type FaultConfig struct {
	// DropProb is the probability that the connection is severed after
	// the block has been processed (state advanced) but before any of
	// the response reaches the client — the classic lost-response
	// failure the replay buffer exists for.
	DropProb float64 `json:"drop_prob"`
	// TruncateProb is the probability that only a prefix of the
	// response body is written before the connection is severed, so the
	// client sees a decode failure on a partially received block.
	TruncateProb float64 `json:"truncate_prob"`
	// Error503Prob is the probability that the request is refused with
	// 503 Service Unavailable before any session state is touched.
	Error503Prob float64 `json:"error503_prob"`
}

// enabled reports whether any fault can fire.
func (c FaultConfig) enabled() bool {
	return c.DropProb > 0 || c.TruncateProb > 0 || c.Error503Prob > 0
}

// Validate rejects probabilities outside [0, 1] and combined rates
// above 1 (the three bands stack, so their sum is the total fault
// probability per request).
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", c.DropProb},
		{"truncate", c.TruncateProb},
		{"503", c.Error503Prob},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("service: fault %s probability %g outside [0, 1]", p.name, p.v)
		}
	}
	if sum := c.DropProb + c.TruncateProb + c.Error503Prob; sum > 1 {
		return fmt.Errorf("service: combined fault probability %g exceeds 1", sum)
	}
	return nil
}

// faultKind is one injected failure mode.
type faultKind int

const (
	faultNone     faultKind = iota
	fault503                // refuse the request before processing
	faultDrop               // sever the connection before writing anything
	faultTruncate           // write a prefix of the body, then sever
)

// faultInjector draws fault decisions from seeded RNGs so chaos runs are
// reproducible independently of the delay-noise RNG. Decisions are drawn
// from a per-session stream seeded by (seed, session id): under
// concurrency the interleaving of requests across sessions no longer
// changes which faults each session sees, so a chaos run against a given
// seed produces the same per-session fault sequence every time. (A
// per-stream RNG — rather than a pure hash of (session, seq) — also means
// a retry of the same seq draws a fresh decision instead of
// deterministically re-faulting forever.)
//
// The stream map is sharded like the session store, so concurrent
// sessions never contend on one injector mutex.
type faultInjector struct {
	seed   int64
	cfg    FaultConfig
	shards [sessionShardCount]struct {
		mu   sync.Mutex
		rngs map[string]*rand.Rand
	}
}

// newFaultInjector returns nil when no fault is configured; a nil
// injector never fires, so the hot path pays one nil check.
func newFaultInjector(cfg FaultConfig, seed int64) *faultInjector {
	if !cfg.enabled() {
		return nil
	}
	f := &faultInjector{seed: seed, cfg: cfg}
	for i := range f.shards {
		f.shards[i].rngs = make(map[string]*rand.Rand)
	}
	return f
}

// decide draws the fault (if any) for one request against the session
// key's private stream. The 503 band is checked first so it fires before
// processing; drop and truncate stack after it.
func (f *faultInjector) decide(key string) faultKind {
	if f == nil {
		return faultNone
	}
	sh := &f.shards[shardIndex(key)]
	sh.mu.Lock()
	rng := sh.rngs[key]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(key))
		rng = rand.New(rand.NewSource(f.seed ^ int64(h.Sum64())))
		sh.rngs[key] = rng
	}
	u := rng.Float64()
	sh.mu.Unlock()
	switch {
	case u < f.cfg.Error503Prob:
		return fault503
	case u < f.cfg.Error503Prob+f.cfg.DropProb:
		return faultDrop
	case u < f.cfg.Error503Prob+f.cfg.DropProb+f.cfg.TruncateProb:
		return faultTruncate
	default:
		return faultNone
	}
}

// forget releases the stream of a closed or expired session.
func (f *faultInjector) forget(key string) {
	if f == nil {
		return
	}
	sh := &f.shards[shardIndex(key)]
	sh.mu.Lock()
	delete(sh.rngs, key)
	sh.mu.Unlock()
}

// abortConnection severs the client connection without completing the
// response. http.ErrAbortHandler is special-cased by net/http: the
// server closes the connection and suppresses the panic log line.
// inProcessTransport recovers it and surfaces a transport error, so
// in-process stacks see the same failure the network would produce.
func abortConnection() {
	panic(http.ErrAbortHandler)
}
