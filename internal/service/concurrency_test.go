package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/wire"
)

// Tests for the unserialized hot path: the sharded session store, the
// atomic stats/lastUsed/admission state, the per-session delay RNG, and
// the interruptible injected delay. TestStress* are the concurrency
// stress gate scripts/verify.sh runs under -race.

func TestShardedStore(t *testing.T) {
	st := newShardedStore[int]()
	const n = 500 // ids spread over every shard
	for i := 0; i < n; i++ {
		if _, taken := st.putIfAbsent(fmt.Sprintf("s%08x", i), i); taken {
			t.Fatalf("putIfAbsent reports the fresh id %d taken", i)
		}
	}
	if cur, taken := st.putIfAbsent("s00000007", -1); !taken || cur != 7 {
		t.Fatalf("putIfAbsent on a taken id = %d, %v; want the 7 already there", cur, taken)
	}
	if got := st.size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%08x", i)
		v, ok := st.get(id)
		if !ok || v != i {
			t.Fatalf("get(%s) = %d, %v", id, v, ok)
		}
	}
	if _, ok := st.get("missing"); ok {
		t.Fatal("get(missing) reported present")
	}
	if v, ok := st.remove("s00000000"); !ok || v != 0 {
		t.Fatalf("remove = %d, %v", v, ok)
	}
	if _, ok := st.remove("s00000000"); ok {
		t.Fatal("second remove reported present")
	}
	removed, vals := st.removeIf(func(_ string, v int) bool { return v%2 == 1 })
	if len(removed) != n/2 || len(vals) != n/2 {
		t.Fatalf("removeIf removed %d ids / %d values, want %d", len(removed), len(vals), n/2)
	}
	for i, id := range removed {
		if want, ok := st.get(id); ok {
			t.Fatalf("removed id %s still present with value %d", id, want)
		}
		if vals[i]%2 != 1 {
			t.Fatalf("removeIf returned value %d for %s, want odd", vals[i], id)
		}
	}
	if got := st.size(); got != n/2-1 {
		t.Fatalf("size after removes = %d, want %d", got, n/2-1)
	}
	// Every shard must have seen at least one of the n ids: the hash
	// actually spreads keys in the id format the server generates.
	seen := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		seen[shardIndex(fmt.Sprintf("s%08x", i))] = true
	}
	if len(seen) != sessionShardCount {
		t.Fatalf("%d ids hit only %d of %d shards", n, len(seen), sessionShardCount)
	}
}

func TestRetryAfterRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{100 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2}, // truncation would promise 1s — too early
		{2 * time.Second, 2},
		{2*time.Second + time.Millisecond, 3},
		{0, 1},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}

	// And on the wire: a shed create must carry the rounded-up hint.
	_, ts := newTestServer(t, Config{
		Catalog:     testCatalog(t, 5),
		MaxSessions: 1,
		RetryAfter:  1500 * time.Millisecond,
	})
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("first create = %d", status)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed create = %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (1500ms rounds up)", ra, "2")
	}
}

func TestAdmissionSlotReleasedOnFailedCreate(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5), MaxSessions: 1})
	// A create that fails after admission (unknown table) must return
	// its reserved slot, or the server would leak capacity until restart.
	if _, status := openSession(t, ts, `{"table":"ghost"}`); status != http.StatusNotFound {
		t.Fatalf("ghost create = %d, want 404", status)
	}
	id, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatalf("create after failed create = %d, want 201 (admission slot leaked)", status)
	}
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("create at limit = %d, want 503", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("create after delete = %d, want 201 (slot not returned)", status)
	}
	if got := srv.Stats().SessionsShed; got != 1 {
		t.Fatalf("SessionsShed = %d, want 1", got)
	}
}

// pullBlock posts one /next and returns the response; callers own Body.
func pullBlock(t *testing.T, ts *httptest.Server, id string, size int, seq uint64) *http.Response {
	t.Helper()
	url := fmt.Sprintf("%s/sessions/%s/next?size=%d", ts.URL, id, size)
	if seq > 0 {
		url += fmt.Sprintf("&seq=%d", seq)
	}
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestExpireIdleDoesNotRacePulls is the regression test for the lastUsed
// data race: ExpireIdle used to read sess.lastUsed/ing.lastUsed holding
// only the global lock while handleNext/handleIngestBlock wrote them
// holding only the session lock. This exact test (direct handler calls,
// four pull streams plus an upload stream against a continuously
// sweeping janitor) trips the race detector within ~0.2s on the pre-fix
// code; with lastUsed atomic it is silent.
func TestExpireIdleDoesNotRacePulls(t *testing.T) {
	srv, err := New(Config{Catalog: testCatalog(t, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	open := func(path, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s = %d", path, rec.Code)
		}
		var cr struct {
			Session string `json:"session"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr.Session
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 4; k++ {
		id := open("/sessions", `{"table":"items"}`)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions/"+id+"/next?size=1", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("pull = %d", rec.Code)
					return
				}
			}
		}(id)
	}
	ing := open("/ingest", `{"table":"items"}`)
	payload := encodeItemsBlock(t, 100000, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest/"+ing+"/block", bytes.NewReader(payload)))
			if rec.Code != http.StatusNoContent {
				t.Errorf("ingest block = %d", rec.Code)
				return
			}
		}
	}()
	go func() {
		// now = time.Now(): nothing is idle long enough to expire, so the
		// sweep only reads lastUsed — exactly the racing pair.
		for {
			select {
			case <-stop:
				return
			default:
				srv.ExpireIdle(time.Now())
			}
		}
	}()
	wg.Wait()
	close(stop)
}

// TestStressExpiredMidPullFinishesCleanly pins the expiry-vs-pull
// interleaving: a session the janitor expires while a block is in flight
// must deliver that block completely, and the next pull must get a clean
// 404 — never a partial or conflicting state.
func TestStressExpiredMidPullFinishesCleanly(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog:    testCatalog(t, 20),
		SessionTTL: 10 * time.Millisecond,
		CostModel:  netsim.CostModel{LatencyMS: 400},
		SleepScale: 1, // the pull sleeps ~400ms, leaving the janitor a window
	})
	id, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatal("create failed")
	}

	type pulled struct {
		code   int
		rows   int
		done   bool
		tuples string
	}
	ch := make(chan pulled, 1)
	go func() {
		resp := pullBlock(t, ts, id, 25, 1)
		defer resp.Body.Close()
		meta, payload, err := readFrame(resp.Body)
		_, rows, derr := wire.XML{}.Decode(bytes.NewReader(payload))
		if err = errors.Join(err, derr); err != nil && resp.StatusCode == http.StatusOK {
			t.Errorf("decode in-flight block: %v", err)
		}
		ch <- pulled{resp.StatusCode, len(rows), meta.Done, strconv.Itoa(meta.Tuples)}
	}()

	// Let the pull enter its injected delay, then expire everything.
	time.Sleep(100 * time.Millisecond)
	if n := srv.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ExpireIdle mid-pull dropped %d sessions, want 1", n)
	}
	if srv.SessionCount() != 0 {
		t.Fatal("session still present after expiry")
	}

	got := <-ch
	if got.code != http.StatusOK || got.rows != 20 || !got.done || got.tuples != "20" {
		t.Fatalf("in-flight block after expiry = %+v, want a clean full block", got)
	}

	resp := pullBlock(t, ts, id, 5, 2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pull after expiry = %s, want 404", resp.Status)
	}
}

// TestCancelledPullFreesSessionAndParksRows drives the interruptible
// injected delay: a client that disconnects mid-delay must release the
// session promptly (not after the full simulated sleep), and a retry of
// the same seq must receive the parked rows with nothing lost.
func TestCancelledPullFreesSessionAndParksRows(t *testing.T) {
	srv, err := New(Config{
		Catalog:    testCatalog(t, 10),
		CostModel:  netsim.CostModel{LatencyMS: 1200},
		SleepScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatal("create failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/sessions/"+id+"/next?size=10&seq=1", nil).WithContext(ctx)
	start := time.Now()
	returned := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(returned)
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-returned:
	case <-time.After(900 * time.Millisecond):
		t.Fatal("cancelled pull still pinned the session after 1s; the 1.2s injected delay is not interruptible")
	}
	if el := time.Since(start); el >= 1200*time.Millisecond {
		t.Fatalf("cancelled pull took the full delay (%v)", el)
	}
	if got := srv.Stats().BlocksServed; got != 0 {
		t.Fatalf("cancelled pull counted as served (BlocksServed = %d)", got)
	}
	// Nothing was committed, so the block's one reference went with it.
	if n := srv.RetainedBlocks(); n != 0 {
		t.Fatalf("the cancelled block left %d references held", n)
	}

	// The retry of the same seq gets the parked rows: no tuple lost.
	resp := pullBlock(t, ts, id, 10, 1)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after cancel = %s", resp.Status)
	}
	meta, payload, err := readFrame(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := wire.XML{}.Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("retry served %d rows, want all 10", len(rows))
	}
	if meta.Replayed {
		t.Fatal("retry was a replay; the cancelled pull must not have committed")
	}
}

// TestSingleSessionDelayDeterminism pins the RNG contract of the
// per-session delay streams: with a fixed Config.Seed, a single-session
// run draws exactly the sequence the old server-global RNG produced —
// computed here from first principles — so labrunner and the experiments
// suites see identical injected delays across the refactor.
func TestSingleSessionDelayDeterminism(t *testing.T) {
	const seed = 42
	model := netsim.CostModel{
		LatencyMS: 100, PerTupleMS: 0.5,
		LatencyJitter: 0.22, TupleJitter: 0.02,
		SpikeProb: 0.2, SpikeMS: 60,
	}
	pullDelays := func() []string {
		_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 50), CostModel: model, Seed: seed})
		id, _ := openSession(t, ts, `{"table":"items"}`)
		var delays []string
		for seq := uint64(1); seq <= 5; seq++ {
			resp := pullBlock(t, ts, id, 10, seq)
			meta, _, err := readFrame(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("pull %d = %s, %v", seq, resp.Status, err)
			}
			delays = append(delays, strconv.FormatFloat(meta.DelayMS, 'f', 3, 64))
		}
		return delays
	}

	got := pullDelays()
	// The reference stream: one RNG seeded with Config.Seed pricing each
	// block in order — what the pre-shard server computed globally.
	rng := rand.New(rand.NewSource(seed))
	for i, g := range got {
		want := strconv.FormatFloat(model.Apply(netsim.Load{}).BlockMS(10, rng), 'f', 3, 64)
		if g != want {
			t.Fatalf("block %d delay = %s, want %s (per-session RNG diverged from the old global stream)", i+1, g, want)
		}
	}
	// And the run is repeatable wholesale.
	if again := pullDelays(); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("second run drew %v, first drew %v", again, got)
	}
}

// mustOpenIngest opens an upload session (openIngest lives in
// ingest_test.go) and fails the test on any non-201.
func mustOpenIngest(t *testing.T, ts *httptest.Server, table string) string {
	t.Helper()
	id, status := openIngest(t, ts, fmt.Sprintf(`{"table":%q}`, table))
	if status != http.StatusCreated {
		t.Fatalf("ingest create = %d", status)
	}
	return id
}

// encodeItemsBlock encodes rows [lo, lo+n) of the items schema.
func encodeItemsBlock(t *testing.T, lo, n int) []byte {
	t.Helper()
	schema := minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	}
	rows := make([]minidb.Row, 0, n)
	for i := lo; i < lo+n; i++ {
		rows = append(rows, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("up-%d", i))})
	}
	var buf bytes.Buffer
	if err := (wire.XML{}).Encode(&buf, schema, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStressConcurrentSessions is the main concurrency gate: downloads,
// uploads, deletes, the expiry janitor, /stats and the live-sessions
// gauge all running flat out against one server. Run under -race it
// proves the unserialized hot path is data-race free; afterwards the
// quiesced Stats must both add up and agree exactly with /metrics.
func TestStressConcurrentSessions(t *testing.T) {
	const (
		workers       = 8
		ingestWorkers = 4
		queriesPer    = 5
		tableRows     = 90
		blockSize     = 17 // 6 blocks per query, last one partial
		ingestBlocks  = 6
		ingestRows    = 3
	)
	reg := metrics.NewRegistry()
	// Uploads land in their own table so the download workers scan a
	// stable "items" relation while ingest grows "uploads" concurrently.
	cat := testCatalog(t, tableRows)
	if _, err := cat.CreateTable("uploads", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Catalog: cat, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // janitor, sweeping constantly
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.ExpireIdle(time.Now())
			}
		}
	}()
	go func() { // observers: stats endpoint, snapshot, gauges
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Get(ts.URL + "/stats")
				if err == nil {
					resp.Body.Close()
				}
				_ = srv.Stats()
				_ = reg.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queriesPer; q++ {
				id, status := openSession(t, ts, `{"table":"items"}`)
				if status != http.StatusCreated {
					t.Errorf("create = %d", status)
					return
				}
				total := 0
				for seq := uint64(1); ; seq++ {
					resp := pullBlock(t, ts, id, blockSize, seq)
					if resp.StatusCode != http.StatusOK {
						resp.Body.Close()
						t.Errorf("pull = %s", resp.Status)
						return
					}
					meta, payload, err := readFrame(resp.Body)
					resp.Body.Close()
					var rows []minidb.Row
					if err == nil {
						_, rows, err = wire.XML{}.Decode(bytes.NewReader(payload))
					}
					if err != nil {
						t.Errorf("decode: %v", err)
						return
					}
					total += len(rows)
					if meta.Done {
						break
					}
				}
				if total != tableRows {
					t.Errorf("query pulled %d rows, want %d", total, tableRows)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := mustOpenIngest(t, ts, "uploads")
			for b := 0; b < ingestBlocks; b++ {
				payload := encodeItemsBlock(t, 100000+w*1000+b*ingestRows, ingestRows)
				url := fmt.Sprintf("%s/ingest/%s/block?seq=%d", ts.URL, id, b+1)
				resp, err := http.Post(url, "application/xml", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("ingest block = %s", resp.Status)
					return
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/ingest/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: the atomic counters must add up exactly...
	st := srv.Stats()
	wantQueries := int64(workers * queriesPer)
	if st.SessionsOpened != wantQueries {
		t.Errorf("SessionsOpened = %d, want %d", st.SessionsOpened, wantQueries)
	}
	if st.TuplesServed != wantQueries*tableRows {
		t.Errorf("TuplesServed = %d, want %d", st.TuplesServed, wantQueries*tableRows)
	}
	wantBlocks := wantQueries * int64((tableRows+blockSize-1)/blockSize)
	if st.BlocksServed != wantBlocks {
		t.Errorf("BlocksServed = %d, want %d", st.BlocksServed, wantBlocks)
	}
	if st.IngestsOpened != ingestWorkers {
		t.Errorf("IngestsOpened = %d, want %d", st.IngestsOpened, ingestWorkers)
	}
	if st.TuplesIngested != int64(ingestWorkers*ingestBlocks*ingestRows) {
		t.Errorf("TuplesIngested = %d, want %d", st.TuplesIngested, ingestWorkers*ingestBlocks*ingestRows)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("SessionCount after quiesce = %d, want 0", n)
	}
	if srv.cursors.Load() != 0 {
		t.Errorf("admission counter = %d after all cursors closed, want 0", srv.cursors.Load())
	}

	// ...and agree with the scraped registry series one for one.
	snap := reg.Snapshot()
	for _, pair := range []struct {
		series string
		want   int64
	}{
		{"wsopt_service_sessions_opened_total", st.SessionsOpened},
		{"wsopt_service_blocks_served_total", st.BlocksServed},
		{"wsopt_service_tuples_served_total", st.TuplesServed},
		{"wsopt_service_ingests_opened_total", st.IngestsOpened},
		{"wsopt_service_blocks_ingested_total", st.BlocksIngested},
		{"wsopt_service_tuples_ingested_total", st.TuplesIngested},
	} {
		if got := snap.Counter(pair.series); got != pair.want {
			t.Errorf("%s = %d, stats say %d", pair.series, got, pair.want)
		}
	}
}

// BenchmarkConcurrentPulls measures block serves per second with one
// session per worker, the scenario the sharded store exists for. On the
// pre-shard server every block took the global mutex, so -cpu 1,4,8 was
// ~flat; now the only shared writes are the atomic counters. Run it as
// `go test -run '^$' -bench ConcurrentPulls -cpu 1,4,8 ./internal/service`
// on a machine with that many cores; the same path end to end, over
// sockets, is bench/'s hot-binary-small workload.
func BenchmarkConcurrentPulls(b *testing.B) {
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	})
	if err != nil {
		b.Fatal(err)
	}
	const tableRows = 1 << 13
	batch := make([]minidb.Row, 0, tableRows)
	for i := 0; i < tableRows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString("x")})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Catalog: cat, Codec: wire.Binary{}})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()

	openBench := func() string {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(`{"table":"items"}`))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("create = %d", rec.Code)
		}
		var cr struct {
			Session string `json:"session"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&cr); err != nil {
			b.Fatal(err)
		}
		return cr.Session
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ""
		for pb.Next() {
			if id == "" {
				id = openBench()
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/sessions/"+id+"/next?size=256", nil)
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("pull = %d", rec.Code)
			}
			if rec.Header().Get(HeaderBlockDone) == "true" {
				del := httptest.NewRequest(http.MethodDelete, "/sessions/"+id, nil)
				h.ServeHTTP(httptest.NewRecorder(), del)
				id = ""
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}
