// Package blockcache is a content-addressed cache of encoded blocks:
// the post-codec, post-compression bytes the service would otherwise
// re-scan and re-encode for every repeated pull of the same query at
// the same cursor. At fleet scale most traffic is repeated queries, so
// a hit turns the dominant per-block cost into ~one memcpy.
//
// The cache is one byte-bounded in-memory LRU, with keys derived purely
// from content-determining inputs — the query-plan fingerprint, the
// absolute tuple cursor, the block size, the codec and compression
// level, and the dataset version. Because a key commits to everything
// that influences the bytes within one process, an entry never needs
// invalidation: a write bumps the dataset version and every subsequent
// session simply derives keys no old entry can match. The version counts
// mutations since the process started, so a key means nothing to another
// process: the cache lives and dies with the daemon.
//
// Ownership rules are strict because the service's encode path uses
// pooled buffers: an Entry's payload is always a private immutable
// slice (NewEntry copies out of whatever buffer produced it), entries
// are refcounted, and every hit hands the caller its own retained
// reference. A cache hit can therefore never alias a recycled pool
// buffer, and a cached block outlives session close, replay
// supersession, and pool churn by construction.
package blockcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wsopt/internal/metrics"
)

// Key is the content address of one encoded block: a SHA-256 over the
// plan fingerprint, cursor, and block size.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Fingerprint hashes an ordered list of content-determining fields
// (table, columns, predicate, codec name, compression level, dataset
// version, ...) into a plan fingerprint. Fields are length-prefixed so
// distinct field lists can never collide by concatenation.
func Fingerprint(fields ...string) []byte {
	h := sha256.New()
	var n [4]byte
	for _, f := range fields {
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	return h.Sum(nil)
}

// DeriveKey combines a plan fingerprint with the per-pull coordinates —
// the absolute tuple cursor and the requested block size — into the
// entry's content address.
func DeriveKey(fingerprint []byte, cursor int64, size int) Key {
	h := sha256.New()
	h.Write(fingerprint)
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(cursor))
	binary.BigEndian.PutUint64(b[8:], uint64(size))
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// ErrFillFailed reports that another caller's in-flight fill for the
// same key failed. The waiter should fall back to its own uncached
// encode; retrying through the cache would just re-race the same fill.
var ErrFillFailed = errors.New("blockcache: concurrent fill failed")

// testEntryRelease, when set, observes every entry whose refcount
// reaches zero — the hook lifetime tests use to poison payloads and
// prove no reader still aliases them.
var testEntryRelease atomic.Value // func(*Entry)

// Entry is one immutable cached block. The payload is private to the
// entry (never a pooled buffer) and entries are refcounted: the cache
// holds one reference while the entry is resident, and every hit retains
// one more for the caller, who must Release it when the bytes have been
// written out.
type Entry struct {
	payload []byte
	tuples  int
	done    bool
	refs    atomic.Int32
}

// NewEntry copies payload into a private slice and returns an entry
// holding one reference owned by the caller. The copy is the ownership
// boundary: the source buffer (typically pooled) may be recycled the
// moment NewEntry returns.
func NewEntry(payload []byte, tuples int, done bool) *Entry {
	e := &Entry{payload: append([]byte(nil), payload...), tuples: tuples, done: done}
	e.refs.Store(1)
	return e
}

// Bytes returns the encoded block. The slice is immutable and valid
// until the caller's reference is released.
func (e *Entry) Bytes() []byte { return e.payload }

// Tuples returns the number of tuples encoded in the block.
func (e *Entry) Tuples() int { return e.tuples }

// Done reports whether this block is the final block of its plan.
func (e *Entry) Done() bool { return e.done }

func (e *Entry) size() int64 { return int64(len(e.payload)) }

// Retain adds a reference. Only holders of a live reference may call
// it (refcount resurrection is a bug, not a feature).
func (e *Entry) Retain() {
	if e.refs.Add(1) <= 1 {
		panic("blockcache: Retain on a released entry")
	}
}

// Release drops one reference. Memory is garbage-collected — the final
// release is pure accounting plus the test hook.
func (e *Entry) Release() {
	n := e.refs.Add(-1)
	if n < 0 {
		panic("blockcache: Release past zero")
	}
	if n == 0 {
		if f, ok := testEntryRelease.Load().(func(*Entry)); ok && f != nil {
			f(e)
		}
	}
}

// Config sizes the cache.
type Config struct {
	// MemBytes bounds the cache's total payload bytes. Must be positive.
	MemBytes int64
	// Metrics, when non-nil, registers the wsopt_cache_* series.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot of cache effectiveness, exposed on
// /stats; the wsopt_cache_* series read the same counters.
type Stats struct {
	MemHits int64 `json:"mem_hits"`
	// DiskHits is always 0; it stays only because bench/stack.go and
	// bench/run.go read it.
	DiskHits           int64 `json:"-"`
	Misses             int64 `json:"misses"`
	MemEvictions       int64 `json:"mem_evictions"`
	SingleflightShared int64 `json:"singleflight_shared"`
	MemBytes           int64 `json:"mem_bytes"`
	MemEntries         int64 `json:"mem_entries"`
}

// lruItem is one resident.
type lruItem struct {
	key Key
	ent *Entry
}

// flight is one in-progress fill; waiters block on done and receive a
// reference retained for them before done closes.
type flight struct {
	done    chan struct{}
	ent     *Entry // nil if the fill failed
	waiters int    // guarded by Cache.mu until the flight resolves
}

// Cache is the content-addressed block cache. Safe for concurrent use.
type Cache struct {
	memLimit int64

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*flight

	// One atomic per counted fact; Stats() and the wsopt_cache_* series
	// (metrics.go) both read these.
	memHits, misses, memEvict, shared atomic.Int64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("blockcache: memory budget must be positive, got %d", cfg.MemBytes)
	}
	c := &Cache{
		memLimit: cfg.MemBytes,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight),
	}
	if cfg.Metrics != nil {
		c.registerMetrics(cfg.Metrics)
	}
	return c, nil
}

// residentLocked returns key's resident entry retained for the caller,
// or nil. Caller holds c.mu.
func (c *Cache) residentLocked(key Key) *Entry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	ent := el.Value.(*lruItem).ent
	ent.Retain()
	return ent
}

// Get returns the cached entry for key with a reference retained for
// the caller, or nil on a miss.
func (c *Cache) Get(key Key) *Entry {
	c.mu.Lock()
	ent := c.residentLocked(key)
	c.mu.Unlock()
	if ent == nil {
		c.misses.Add(1)
		return nil
	}
	c.memHits.Add(1)
	return ent
}

// put inserts ent under key, retaining a cache-owned reference, and
// evicts least-recently-used residents past the byte budget. No-op when
// the key is already resident.
func (c *Cache) put(key Key, ent *Entry) {
	var evicted []*lruItem
	c.mu.Lock()
	if _, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return
	}
	ent.Retain()
	c.entries[key] = c.lru.PushFront(&lruItem{key: key, ent: ent})
	c.bytes += ent.size()
	for c.bytes > c.memLimit && c.lru.Len() > 0 {
		back := c.lru.Back()
		it := back.Value.(*lruItem)
		c.lru.Remove(back)
		delete(c.entries, it.key)
		c.bytes -= it.ent.size()
		evicted = append(evicted, it)
	}
	c.mu.Unlock()
	for _, it := range evicted {
		c.memEvict.Add(1)
		it.ent.Release()
	}
}

// GetOrFill returns the entry for key, running fill at most once across
// concurrent callers. The returned entry is always retained for the
// caller. shared reports the entry came from another caller's
// concurrent fill (the single-flight win). A fill error is returned
// verbatim to the leader that ran it and as ErrFillFailed to waiters,
// who should fall back to their own uncached encode.
func (c *Cache) GetOrFill(key Key, fill func() (*Entry, error)) (ent *Entry, shared bool, err error) {
	c.mu.Lock()
	if e := c.residentLocked(key); e != nil {
		c.mu.Unlock()
		c.memHits.Add(1)
		return e, false, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.mu.Unlock()
		<-f.done
		if f.ent == nil {
			return nil, false, ErrFillFailed
		}
		c.shared.Add(1)
		return f.ent, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// Leader path. The fill runs outside the cache lock; waiters queue on
	// the flight meanwhile.
	c.misses.Add(1)
	e, err := fill()
	if err != nil {
		c.resolve(key, f, nil)
		return nil, false, err
	}
	c.put(key, e)
	c.resolve(key, f, e)
	return e, false, nil
}

// resolve publishes the fill result to the flight's waiters — each gets
// its own reference, retained under the cache lock BEFORE done closes,
// so a waiter can never observe the entry at refcount zero — and
// retires the flight.
func (c *Cache) resolve(key Key, f *flight, ent *Entry) {
	c.mu.Lock()
	delete(c.flights, key)
	if ent != nil {
		for i := 0; i < f.waiters; i++ {
			ent.Retain()
		}
	}
	f.ent = ent
	c.mu.Unlock()
	close(f.done)
}

// Stats snapshots the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	memBytes, memEntries := c.bytes, int64(c.lru.Len())
	c.mu.Unlock()
	return Stats{
		MemHits:            c.memHits.Load(),
		Misses:             c.misses.Load(),
		MemEvictions:       c.memEvict.Load(),
		SingleflightShared: c.shared.Load(),
		MemBytes:           memBytes,
		MemEntries:         memEntries,
	}
}
