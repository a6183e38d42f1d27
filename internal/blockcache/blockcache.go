// Package blockcache is a content-addressed cache of encoded blocks:
// the post-codec, post-compression bytes the service would otherwise
// re-scan and re-encode for every repeated pull of the same query at
// the same cursor. At fleet scale most traffic is repeated queries, so
// a hit turns the dominant per-block cost into ~one memcpy.
//
// The layering follows content-addressed chunk stores (dolt's nbs): a
// byte-bounded in-memory LRU tier over an optional bounded disk tier,
// with keys derived purely from content-determining inputs — the
// query-plan fingerprint, the absolute tuple cursor, the block size,
// the codec and compression level, and the dataset version. Because a
// key commits to everything that influences the bytes, an entry never
// needs invalidation: a write bumps the dataset version and every
// subsequent session simply derives keys no old entry can match.
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

// String renders the key as lowercase hex (also the disk tier's file
// name for the entry).
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
// holds one reference while the entry is resident in the memory tier,
// and every hit retains one more for the caller, who must Release it
// when the bytes have been written out.
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
	return newEntryOwned(append([]byte(nil), payload...), tuples, done)
}

// newEntryOwned adopts payload without copying; the caller must hand
// over exclusive ownership of the slice.
func newEntryOwned(payload []byte, tuples int, done bool) *Entry {
	e := &Entry{payload: payload, tuples: tuples, done: done}
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

// Config sizes the cache tiers.
type Config struct {
	// MemBytes bounds the in-memory tier's total payload bytes. Must be
	// positive: a cache with no memory tier is no cache.
	MemBytes int64
	// Dir, when non-empty, enables the disk tier rooted there.
	Dir string
	// DiskBytes bounds the disk tier's total payload bytes. Requires
	// Dir; <= 0 with a Dir set means unbounded.
	DiskBytes int64
	// Metrics, when non-nil, registers the wsopt_cache_* series.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot of cache effectiveness, exposed on
// /stats; the wsopt_cache_* series read the same counters.
type Stats struct {
	MemHits            int64 `json:"mem_hits"`
	DiskHits           int64 `json:"disk_hits"`
	Misses             int64 `json:"misses"`
	MemEvictions       int64 `json:"mem_evictions"`
	DiskEvictions      int64 `json:"disk_evictions"`
	SingleflightShared int64 `json:"singleflight_shared"`
	MemBytes           int64 `json:"mem_bytes"`
	MemEntries         int64 `json:"mem_entries"`
	DiskBytes          int64 `json:"disk_bytes"`
	DiskEntries        int64 `json:"disk_entries"`
}

// HitRate returns hits/(hits+misses) across both tiers, 0 when idle.
func (s Stats) HitRate() float64 {
	hits := s.MemHits + s.DiskHits
	if hits+s.Misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+s.Misses)
}

// lruItem is one memory-tier resident.
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

// Cache is the two-tier content-addressed block cache. Safe for
// concurrent use.
type Cache struct {
	memLimit int64
	disk     *diskTier

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*flight

	// One atomic per counted fact; Stats() and the wsopt_cache_* series
	// (metrics.go) both read these.
	memHits, diskHits, misses atomic.Int64
	memEvict, diskEvict       atomic.Int64
	shared                    atomic.Int64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("blockcache: memory budget must be positive, got %d", cfg.MemBytes)
	}
	if cfg.Dir == "" && cfg.DiskBytes > 0 {
		return nil, errors.New("blockcache: disk budget set without a cache directory")
	}
	c := &Cache{
		memLimit: cfg.MemBytes,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight),
	}
	if cfg.Dir != "" {
		d, err := newDiskTier(cfg.Dir, cfg.DiskBytes, func(n int64) { c.diskEvict.Add(n) })
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	if cfg.Metrics != nil {
		c.registerMetrics(cfg.Metrics)
	}
	return c, nil
}

// getMem returns the resident entry retained for the caller, or nil.
func (c *Cache) getMem(key Key) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	ent := el.Value.(*lruItem).ent
	ent.Retain()
	return ent
}

// getDisk reads key from the disk tier, promotes it into the memory
// tier, and returns it retained for the caller, or nil.
func (c *Cache) getDisk(key Key) *Entry {
	if c.disk == nil {
		return nil
	}
	payload, tuples, done, ok := c.disk.get(key)
	if !ok {
		return nil
	}
	ent := newEntryOwned(payload, tuples, done)
	c.put(key, ent)
	return ent
}

// Get returns the cached entry for key with a reference retained for
// the caller, or nil on a miss.
func (c *Cache) Get(key Key) *Entry {
	if e := c.getMem(key); e != nil {
		c.memHits.Add(1)
		return e
	}
	if e := c.getDisk(key); e != nil {
		c.diskHits.Add(1)
		return e
	}
	c.misses.Add(1)
	return nil
}

// put inserts ent into the memory tier under key, retaining a
// cache-owned reference, and evicts least-recently-used residents past
// the byte budget (spilling them to the disk tier when one exists).
// No-op when the key is already resident.
func (c *Cache) put(key Key, ent *Entry) {
	var spill []*lruItem
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
		spill = append(spill, it)
	}
	c.mu.Unlock()
	// Spill outside the lock: the disk write is slow and the evicted
	// entries are still retained by the spill slice, so readers that
	// raced the eviction keep valid references.
	for _, it := range spill {
		c.memEvict.Add(1)
		if c.disk != nil {
			c.disk.put(it.key, it.ent.payload, it.ent.tuples, it.ent.done)
		}
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
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*lruItem).ent
		e.Retain()
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

	// Leader path. The disk probe and the fill both run outside the
	// cache lock; waiters queue on the flight meanwhile.
	if e := c.getDisk(key); e != nil {
		c.diskHits.Add(1)
		c.resolve(key, f, e)
		return e, false, nil
	}
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

// Stats snapshots the cache counters and tier occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	memBytes, memEntries := c.bytes, int64(c.lru.Len())
	c.mu.Unlock()
	st := Stats{
		MemHits:            c.memHits.Load(),
		DiskHits:           c.diskHits.Load(),
		Misses:             c.misses.Load(),
		MemEvictions:       c.memEvict.Load(),
		DiskEvictions:      c.diskEvict.Load(),
		SingleflightShared: c.shared.Load(),
		MemBytes:           memBytes,
		MemEntries:         memEntries,
	}
	if c.disk != nil {
		st.DiskBytes, st.DiskEntries = c.disk.occupancy()
	}
	return st
}
