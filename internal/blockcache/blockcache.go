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
// The package also owns the one retained-block type every tier holds
// blocks by (Entry), the one pool of block buffers (Buffer), and the
// per-daemon count of held references (Refs). A resident entry is
// always a private immutable copy (Refs.Copy copies out of whatever
// buffer produced it), and every hit hands the caller its own retained
// reference.
package blockcache

import (
	"bytes"
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

// Entry is one retained block: an encoded payload, its tuple count and
// whether it ends its plan, under one refcount. It is the one block type
// of every tier: the cache's residents, a backend's committed and
// prepared blocks, and a gateway's proxied ones. Its payload has one of
// two backings:
//
//   - a pooled buffer (Refs.Pooled): a daemon's encode or read buffer,
//     put back into the pool by the last release;
//   - a private copy (NewEntry, Refs.Copy): what the cache keeps
//     resident, which the garbage collector frees.
//
// The rule is one for both. Every holder owns one reference and gives it
// back once with Release; a holder may Retain one more for someone else.
// The last release recycles the backing, and a release past zero panics.
// A cache hit can therefore never alias a recycled buffer, and a retained
// block outlives session close, replay supersession and pool churn by
// construction (DESIGN.md §14).
type Entry struct {
	payload []byte
	tuples  int
	done    bool
	refs    atomic.Int32
	// buf is the pooled backing; nil for a private copy.
	buf *bytes.Buffer
	// held counts the entry's references for the daemon holding it; nil
	// for an uncounted entry.
	held *Refs
}

// Refs is one daemon's count of the block references it holds: every
// reference to an entry the daemon made, except the one the cache keeps
// while the entry is resident. It returns to zero once every session is
// closed and the replication log has dropped its records; tests read it
// to find a reference never given back. The zero value is ready.
type Refs struct{ live atomic.Int64 }

// Live returns the number of references held.
func (r *Refs) Live() int64 { return r.live.Load() }

// Pooled wraps buf, a buffer from Buffer holding one encoded block, in
// an entry with one reference, its caller's, counted in r. The entry
// owns buf from here on and recycles it on its last release.
func (r *Refs) Pooled(buf *bytes.Buffer, tuples int, done bool) *Entry {
	return r.newEntry(buf.Bytes(), buf, tuples, done)
}

// Copy copies payload into an entry with one reference, its caller's,
// counted in r. The copy is the ownership boundary: the source buffer
// (typically pooled) may be recycled the moment Copy returns.
func (r *Refs) Copy(payload []byte, tuples int, done bool) *Entry {
	return r.newEntry(append([]byte(nil), payload...), nil, tuples, done)
}

func (r *Refs) newEntry(payload []byte, buf *bytes.Buffer, tuples int, done bool) *Entry {
	e := &Entry{payload: payload, tuples: tuples, done: done, buf: buf, held: r}
	e.refs.Store(1)
	e.count(1)
	return e
}

// NewEntry is Refs.Copy for an entry no daemon counts.
func NewEntry(payload []byte, tuples int, done bool) *Entry {
	return (*Refs)(nil).Copy(payload, tuples, done)
}

// bufPool is the one pool of block buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Buffer returns an empty buffer from the block-buffer pool. Its taker
// either hands it to Refs.Pooled or gives it back with PutBuffer.
func Buffer() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// PutBuffer returns a buffer nothing references to the pool, empty.
func PutBuffer(buf *bytes.Buffer) {
	buf.Reset()
	bufPool.Put(buf)
}

// releaseHook, when set, sees every entry whose last reference goes,
// before its backing is recycled.
var releaseHook atomic.Pointer[func(*Entry)]

// OnFinalRelease makes f see every entry whose last reference goes,
// before its backing is recycled; nil stops it. It is for tests, which
// record the order of releases or poison payloads to prove no reader
// still aliases them.
func OnFinalRelease(f func(*Entry)) { releaseHook.Store(&f) }

// Bytes returns the encoded block. The slice is immutable and valid
// until the caller's reference is released.
func (e *Entry) Bytes() []byte { return e.payload }

// Tuples returns the number of tuples encoded in the block.
func (e *Entry) Tuples() int { return e.tuples }

// Done reports whether this block is the final block of its plan.
func (e *Entry) Done() bool { return e.done }

// Fits reports whether e is the block a request for size tuples at the
// same cursor gets: as many tuples, or the result set's last block,
// which a larger size cannot lengthen.
func (e *Entry) Fits(size int) bool {
	return e.tuples == size || e.done && e.tuples < size
}

// Pinned is what holding e keeps out of the heap, the charge a push
// stream puts on it: a private copy's length, or a pooled buffer's
// capacity, at most twice the payload. The client acks by the payload
// bytes it reads, at half the stream's byte budget, so a larger charge
// could hold the producer on an ack the client has no reason to send
// (DESIGN.md §19).
func (e *Entry) Pinned() int {
	if e.buf == nil {
		return len(e.payload)
	}
	return min(e.buf.Cap(), 2*len(e.payload))
}

func (e *Entry) size() int64 { return int64(len(e.payload)) }

func (e *Entry) count(n int64) {
	if e.held != nil {
		e.held.live.Add(n)
	}
}

// Retain adds a reference. Only holders of a live reference may call
// it (refcount resurrection is a bug, not a feature).
func (e *Entry) Retain() {
	e.retain()
	e.count(1)
}

// Release drops one reference; the last one recycles the backing.
// Holders release in any order.
func (e *Entry) Release() {
	e.count(-1)
	e.release()
}

// retain and release are Retain and Release uncounted: the cache's
// residency reference.
func (e *Entry) retain() {
	if e.refs.Add(1) <= 1 {
		panic("blockcache: Retain on a released entry")
	}
}

func (e *Entry) release() {
	n := e.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("blockcache: Release past zero")
	}
	// Only the releaser that took the last reference gets here; the
	// atomic Add orders it after every other holder's release.
	if f := releaseHook.Load(); f != nil && *f != nil {
		(*f)(e)
	}
	if buf := e.buf; buf != nil {
		e.buf, e.payload = nil, nil
		PutBuffer(buf)
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
	ent := c.Resident(key)
	if ent == nil {
		c.misses.Add(1)
	}
	return ent
}

// Resident is Get for a caller that fills key through GetOrFill on a
// miss: it counts a hit and leaves the miss to GetOrFill, so that one
// block is counted once.
func (c *Cache) Resident(key Key) *Entry {
	c.mu.Lock()
	ent := c.residentLocked(key)
	c.mu.Unlock()
	if ent != nil {
		c.memHits.Add(1)
	}
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
	ent.retain()
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
		it.ent.release()
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
