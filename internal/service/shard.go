package service

import "sync"

// The session maps are the one piece of state every request must touch,
// so they are split into independent shards keyed by a hash of the
// session id: lookups, creates, deletes and the janitor's expiry sweep
// only lock the one shard that owns the id, and concurrent sessions
// spread across shards never contend. 32 shards keeps the per-shard
// mutex essentially uncontended far past the core counts this runs on
// while costing ~32 empty maps per store.
const sessionShardCount = 32

// shardIndex hashes an id onto its shard with inline FNV-1a (no
// allocation on the hot path).
func shardIndex(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h % sessionShardCount
}

// storeShard is one lock domain of a shardedStore.
type storeShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// shardedStore is a string-keyed concurrent map split into
// sessionShardCount lock domains. It holds both download sessions and
// ingest sessions (two instances).
type shardedStore[V any] struct {
	shards [sessionShardCount]storeShard[V]
}

func newShardedStore[V any]() *shardedStore[V] {
	st := &shardedStore[V]{}
	for i := range st.shards {
		st.shards[i].m = make(map[string]V)
	}
	return st
}

// get returns the value for id, if present.
func (st *shardedStore[V]) get(id string) (V, bool) {
	sh := &st.shards[shardIndex(id)]
	sh.mu.RLock()
	v, ok := sh.m[id]
	sh.mu.RUnlock()
	return v, ok
}

// putIfAbsent inserts v unless id is taken, in which case it returns the
// value already there (never, for an id the server assigned itself).
func (st *shardedStore[V]) putIfAbsent(id string, v V) (cur V, taken bool) {
	sh := &st.shards[shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, taken = sh.m[id]; !taken {
		sh.m[id] = v
	}
	return cur, taken
}

// remove deletes id and reports whether it was present.
func (st *shardedStore[V]) remove(id string) (V, bool) {
	sh := &st.shards[shardIndex(id)]
	sh.mu.Lock()
	v, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	return v, ok
}

// size sums the shard sizes. The result is a point-in-time estimate
// under concurrent mutation, which is all its callers (gauges, tests
// after quiescing) need.
func (st *shardedStore[V]) size() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// removeIf deletes every entry the predicate selects and returns the
// removed ids and values (positionally paired). Each shard is swept
// under its own write lock, so the janitor never blocks requests on
// other shards.
func (st *shardedStore[V]) removeIf(pred func(id string, v V) bool) ([]string, []V) {
	var removed []string
	var vals []V
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id, v := range sh.m {
			if pred(id, v) {
				delete(sh.m, id)
				removed = append(removed, id)
				vals = append(vals, v)
			}
		}
		sh.mu.Unlock()
	}
	return removed, vals
}
