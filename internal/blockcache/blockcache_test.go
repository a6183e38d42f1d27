package blockcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func testKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func payload(size int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, size)
}

func TestDeriveKeySensitivity(t *testing.T) {
	fpA := Fingerprint("customer", "", "", "false", "0", "binary", "0", "1")
	fpB := Fingerprint("customer", "", "", "false", "0", "binary", "0", "2") // bumped version
	base := DeriveKey(fpA, 100, 500)
	for name, other := range map[string]Key{
		"cursor":  DeriveKey(fpA, 101, 500),
		"size":    DeriveKey(fpA, 100, 501),
		"version": DeriveKey(fpB, 100, 500),
	} {
		if other == base {
			t.Errorf("key is insensitive to %s", name)
		}
	}
	if again := DeriveKey(fpA, 100, 500); again != base {
		t.Error("key derivation is not deterministic")
	}
	// Length-prefixed fields: moving a boundary must change the hash.
	if bytes.Equal(Fingerprint("ab", "c"), Fingerprint("a", "bc")) {
		t.Error("fingerprint collides across field boundaries")
	}
}

func TestNewEntryCopiesOutOfSourceBuffer(t *testing.T) {
	src := payload(64, 0x11)
	ent := NewEntry(src, 4, false)
	for i := range src {
		src[i] = 0xEE // simulate the pooled buffer being recycled
	}
	if !bytes.Equal(ent.Bytes(), payload(64, 0x11)) {
		t.Fatal("entry bytes alias the source buffer")
	}
	ent.Release()
}

func TestMemHitRetainsAndCounts(t *testing.T) {
	c, err := New(Config{MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if got := c.Get(k); got != nil {
		t.Fatal("hit on an empty cache")
	}
	ent, shared, err := c.GetOrFill(k, func() (*Entry, error) {
		return NewEntry(payload(10, 0xAB), 2, true), nil
	})
	if err != nil || shared {
		t.Fatalf("fill: shared=%v err=%v", shared, err)
	}
	hit := c.Get(k)
	if hit == nil {
		t.Fatal("miss after fill")
	}
	if hit != ent {
		t.Fatal("hit returned a different entry than the fill")
	}
	if hit.Tuples() != 2 || !hit.Done() || !bytes.Equal(hit.Bytes(), payload(10, 0xAB)) {
		t.Fatal("hit entry does not match the filled block")
	}
	ent.Release()
	hit.Release()
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 2 || st.MemEntries != 1 || st.MemBytes != 10 {
		t.Fatalf("stats = %+v, want 1 mem hit, 2 misses, 1 entry, 10 bytes", st)
	}
}

func TestLRUEvictsByBytesOldestFirst(t *testing.T) {
	released := make(map[*Entry]bool)
	testEntryRelease.Store(func(e *Entry) { released[e] = true })
	defer testEntryRelease.Store((func(*Entry))(nil))

	c, err := New(Config{MemBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]*Entry, 4)
	for i := range ents {
		ent, _, err := c.GetOrFill(testKey(byte(i)), func() (*Entry, error) {
			return NewEntry(payload(40, byte(i)), 1, false), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = ent
	}
	// 4×40 bytes against a 100-byte budget: the two oldest are gone.
	st := c.Stats()
	if st.MemEntries != 2 || st.MemBytes != 80 || st.MemEvictions != 2 {
		t.Fatalf("stats = %+v, want 2 entries, 80 bytes, 2 evictions", st)
	}
	if c.Get(testKey(0)) != nil || c.Get(testKey(1)) != nil {
		t.Fatal("oldest entries still resident")
	}
	for i := 2; i < 4; i++ {
		hit := c.Get(testKey(byte(i)))
		if hit == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
		hit.Release()
	}
	// The evicted entries were still retained by their fillers: eviction
	// must not have zeroed them.
	for i, ent := range ents {
		if released[ent] {
			t.Fatalf("entry %d released while its filler still holds a reference", i)
		}
		if !bytes.Equal(ent.Bytes(), payload(40, byte(i))) {
			t.Fatalf("entry %d bytes corrupted after eviction", i)
		}
		ent.Release()
	}
	for i, ent := range ents[:2] {
		if !released[ent] {
			t.Fatalf("evicted entry %d not released after the last reference dropped", i)
		}
	}
}

func TestSingleFlightSharesOneFill(t *testing.T) {
	c, err := New(Config{MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	fillStarted := make(chan struct{})
	fillRelease := make(chan struct{})
	fills := 0

	var wg sync.WaitGroup
	type result struct {
		ent    *Entry
		shared bool
		err    error
	}
	results := make([]result, 8)
	// Leader first, so the fill is guaranteed in flight when the
	// waiters arrive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ent, shared, err := c.GetOrFill(k, func() (*Entry, error) {
			fills++
			close(fillStarted)
			<-fillRelease
			return NewEntry(payload(16, 0x7C), 4, false), nil
		})
		results[0] = result{ent, shared, err}
	}()
	<-fillStarted
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, shared, err := c.GetOrFill(k, func() (*Entry, error) {
				t.Error("a waiter ran its own fill")
				return NewEntry(nil, 0, false), nil
			})
			results[i] = result{ent, shared, err}
		}(i)
	}
	// Give the waiters a moment to queue on the flight, then let the
	// leader finish. (Waiters that arrive after resolve would be mem
	// hits — also correct, just not the path under test; the t.Error in
	// their fill still guards the single-fill invariant.)
	close(fillRelease)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	sharedCount := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.ent == nil || !bytes.Equal(r.ent.Bytes(), payload(16, 0x7C)) {
			t.Fatalf("caller %d got wrong bytes", i)
		}
		if r.shared {
			sharedCount++
		}
		r.ent.Release()
	}
	st := c.Stats()
	if int64(sharedCount) != st.SingleflightShared {
		t.Fatalf("%d callers saw shared=true, stats say %d", sharedCount, st.SingleflightShared)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (only the leader's fill)", st.Misses)
	}
	// The cache's own reference must still be live and serve hits.
	hit := c.Get(k)
	if hit == nil {
		t.Fatal("entry not resident after all callers released")
	}
	hit.Release()
}

func TestSingleFlightFillErrorFailsWaitersSoft(t *testing.T) {
	c, err := New(Config{MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(4)
	fillStarted := make(chan struct{})
	fillRelease := make(chan struct{})
	boom := fmt.Errorf("encode exploded")

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill(k, func() (*Entry, error) {
			close(fillStarted)
			<-fillRelease
			return nil, boom
		})
		leaderErr <- err
	}()
	<-fillStarted
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill(k, func() (*Entry, error) {
			// This waiter must be queued on the leader's flight; with the
			// leader still blocked, reaching here means a second fill ran
			// concurrently.
			t.Error("waiter ran a concurrent fill")
			return nil, boom
		})
		waiterErr <- err
	}()
	// The waiter can only queue once it observes the flight; poll until
	// it is parked, then fail the leader.
	for {
		c.mu.Lock()
		f := c.flights[k]
		queued := f != nil && f.waiters == 1
		c.mu.Unlock()
		if queued {
			break
		}
	}
	close(fillRelease)
	if err := <-leaderErr; err != boom {
		t.Fatalf("leader got %v, want its own fill error", err)
	}
	if err := <-waiterErr; err != ErrFillFailed {
		t.Fatalf("waiter got %v, want ErrFillFailed", err)
	}
	// The failed flight must not poison the key.
	ent, shared, err := c.GetOrFill(k, func() (*Entry, error) {
		return NewEntry(payload(8, 0x01), 1, false), nil
	})
	if err != nil || shared {
		t.Fatalf("refill after failure: shared=%v err=%v", shared, err)
	}
	ent.Release()
}

func TestRetainOnReleasedEntryPanics(t *testing.T) {
	ent := NewEntry(payload(4, 1), 1, false)
	ent.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain on a dead entry did not panic")
		}
	}()
	ent.Retain()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MemBytes: 0}); err == nil {
		t.Error("zero memory budget accepted")
	}
	if _, err := New(Config{MemBytes: -1}); err == nil {
		t.Error("negative memory budget accepted")
	}
}
