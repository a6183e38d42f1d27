package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsopt/internal/blockcache"
	"wsopt/internal/minidb"
)

func newTestCache(t *testing.T, memBytes int64) *blockcache.Cache {
	t.Helper()
	c, err := blockcache.New(blockcache.Config{MemBytes: memBytes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pullBody pulls one seq'd block and returns its payload plus the done
// flag.
func pullBody(t *testing.T, ts *httptest.Server, id string, size, seq int) ([]byte, bool) {
	t.Helper()
	resp := pullSeq(t, ts, id, size, seq)
	meta, body, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("session %s seq %d: %s, %v", id, seq, resp.Status, err)
	}
	return body, meta.Done
}

// TestCacheHitByteIdenticalAcrossSessions is the headline behavior: a
// second session over the same plan serves every block from the cache,
// byte-identical to the first session's cold encodes — and a third
// session created at a block-aligned offset hits the same entries,
// because keys carry the absolute cursor, not the create offset.
func TestCacheHitByteIdenticalAcrossSessions(t *testing.T) {
	cache := newTestCache(t, 1<<20)
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 200), Cache: cache})

	const size = 40
	idA, _ := openSession(t, ts, `{"table":"items"}`)
	var cold [][]byte
	for seq, done := 1, false; !done; seq++ {
		var body []byte
		body, done = pullBody(t, ts, idA, size, seq)
		cold = append(cold, body)
	}
	base := cache.Stats()
	if base.Misses != int64(len(cold)) {
		t.Fatalf("cold run: %d misses for %d blocks", base.Misses, len(cold))
	}

	idB, _ := openSession(t, ts, `{"table":"items"}`)
	for seq := range cold {
		body, _ := pullBody(t, ts, idB, size, seq+1)
		if !bytes.Equal(body, cold[seq]) {
			t.Fatalf("block %d: cache hit differs from cold encode", seq+1)
		}
	}
	st := cache.Stats()
	if st.Misses != base.Misses {
		t.Fatalf("hot run re-encoded: misses %d -> %d", base.Misses, st.Misses)
	}
	if got := st.MemHits - base.MemHits; got != int64(len(cold)) {
		t.Fatalf("hot run: %d mem hits, want %d", got, len(cold))
	}

	// Offset re-open (the gateway's fallback failover path): absolute
	// cursor 40 = block 2's cursor, so the session hits block 2's entry.
	idC, _ := openSession(t, ts, `{"table":"items","offset":40}`)
	body, _ := pullBody(t, ts, idC, size, 1)
	if !bytes.Equal(body, cold[1]) {
		t.Fatal("offset re-open did not hit the block-aligned cache entry")
	}
	if cache.Stats().Misses != st.Misses {
		t.Fatal("offset re-open re-encoded instead of hitting")
	}
}

// TestCachedBlockReplayAndStats checks seq-replay semantics are intact
// on cached blocks (replays serve the committed bytes verbatim without
// touching the cache) and that /stats exposes the cache snapshot.
func TestCachedBlockReplayAndStats(t *testing.T) {
	cache := newTestCache(t, 1<<20)
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 100), Cache: cache})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	fresh, _ := pullBody(t, ts, id, 30, 1)
	before := cache.Stats()
	resp := pullSeq(t, ts, id, 30, 1)
	meta, replayed, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %s, %v", resp.Status, err)
	}
	if !meta.Replayed {
		t.Fatal("replay not flagged")
	}
	if !bytes.Equal(replayed, fresh) {
		t.Fatal("replay differs from committed block")
	}
	after := cache.Stats()
	if after.MemHits != before.MemHits || after.Misses != before.Misses {
		t.Fatal("a seq replay consulted the cache")
	}

	if st := srv.Stats(); st.Cache == nil || st.Cache.Misses == 0 {
		t.Fatalf("service Stats does not carry the cache snapshot: %+v", st.Cache)
	}
	_, body := func() (int, string) {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}()
	if !strings.Contains(body, `"cache"`) || !strings.Contains(body, `"mem_hits"`) {
		t.Fatalf("/stats missing cache block: %s", body)
	}
}

// TestCacheExactlyOnceEncodeUnderConcurrency drives K sessions over the
// same plan concurrently and proves each distinct block was scanned and
// encoded exactly once: the miss counter (one per fill) equals the
// block count, and every other pull was a hit or a shared single-flight
// fill.
func TestCacheExactlyOnceEncodeUnderConcurrency(t *testing.T) {
	cache := newTestCache(t, 1<<20)
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 240), Cache: cache})

	const sessions, size, blocks = 4, 50, 5 // 240 rows: 50×4 + 40(done)
	bodies := make([][][]byte, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for seq, done := 1, false; !done; seq++ {
				resp := pullSeq(t, ts, id, size, seq)
				meta, body, err := readFrame(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("session %s seq %d: %s, %v", id, seq, resp.Status, err)
					return
				}
				done = meta.Done
				bodies[i] = append(bodies[i], body)
			}
		}(i, id)
	}
	wg.Wait()

	for i := 1; i < sessions; i++ {
		if len(bodies[i]) != len(bodies[0]) {
			t.Fatalf("session %d served %d blocks, session 0 served %d", i, len(bodies[i]), len(bodies[0]))
		}
		for j := range bodies[i] {
			if !bytes.Equal(bodies[i][j], bodies[0][j]) {
				t.Fatalf("session %d block %d differs from session 0", i, j+1)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != blocks {
		t.Fatalf("%d misses, want %d — each block must be encoded exactly once", st.Misses, blocks)
	}
	if total := st.MemHits + st.SingleflightShared; total != (sessions-1)*blocks {
		t.Fatalf("hits+shared = %d, want %d", total, (sessions-1)*blocks)
	}
}

// TestCacheInvalidationOnDatasetVersion proves a dataset write can never
// serve stale cached blocks: entries are keyed by the version captured
// at session create, so a session opened after an ingest derives keys no
// pre-ingest entry can match — including the old final done-block, which
// would otherwise truncate the result set.
func TestCacheInvalidationOnDatasetVersion(t *testing.T) {
	cache := newTestCache(t, 1<<20)
	cat := testCatalog(t, 100)
	_, ts := newTestServer(t, Config{Catalog: cat, Cache: cache})

	countTuples := func() int {
		id, _ := openSession(t, ts, `{"table":"items"}`)
		total := 0
		for seq, done := 1, false; !done; seq++ {
			resp := pullSeq(t, ts, id, 40, seq)
			meta, _, err := readFrame(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("seq %d: %s, %v", seq, resp.Status, err)
			}
			done = meta.Done
			total += meta.Tuples
		}
		return total
	}
	if got := countTuples(); got != 100 {
		t.Fatalf("pre-ingest transfer = %d tuples, want 100", got)
	}

	// Upload 50 more rows through the ingest API — the path that bumps
	// the catalog's dataset version.
	preVersion := cat.Version()
	ingID, status := openIngest(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatalf("open ingest: %d", status)
	}
	extra := make([]minidb.Row, 50)
	for i := range extra {
		extra[i] = minidb.Row{minidb.NewInt(int64(100 + i)), minidb.NewString(fmt.Sprintf("item-%d", 100+i))}
	}
	resp, err := http.Post(ts.URL+"/ingest/"+ingID+"/block", "application/xml", encodeItems(t, extra))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest block: %s", resp.Status)
	}
	if cat.Version() == preVersion {
		t.Fatal("ingest did not bump the dataset version")
	}

	// A fresh session must see all 150 tuples; hitting any stale entry
	// (above all the stale done-block at cursor 80) would end it at 100.
	if got := countTuples(); got != 150 {
		t.Fatalf("post-ingest transfer = %d tuples, want 150 (stale cache hit?)", got)
	}
}

// TestCachedEntrySurvivesSessionClose pins the lifetime rule: closing
// the session that filled an entry must not invalidate the bytes a
// later session hits — the cache's reference keeps the entry alive
// independent of any session.
func TestCachedEntrySurvivesSessionClose(t *testing.T) {
	cache := newTestCache(t, 1<<20)
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 60), Cache: cache})

	idA, _ := openSession(t, ts, `{"table":"items"}`)
	cold, _ := pullBody(t, ts, idA, 25, 1)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+idA, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	idB, _ := openSession(t, ts, `{"table":"items"}`)
	hot, _ := pullBody(t, ts, idB, 25, 1)
	if !bytes.Equal(hot, cold) {
		t.Fatal("entry served after filler close differs from original bytes")
	}
	if cache.Stats().MemHits == 0 {
		t.Fatal("second session did not hit the cache")
	}
}
