package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"wsopt/internal/wire"
)

func TestAdmissionControlShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), MaxSessions: 2})

	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("first session: status %d", status)
	}
	id2, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatalf("second session: status %d", status)
	}

	// Third create is shed with 503 + Retry-After before any query runs.
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated create: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}
	if got := srv.Stats().SessionsShed; got != 1 {
		t.Fatalf("SessionsShed = %d, want 1", got)
	}

	// Ingest creates share the same cursor budget.
	resp, err = http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated ingest create: status %d, want 503", resp.StatusCode)
	}

	// Closing a session frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id2, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("create after close: status %d, want 201", status)
	}
}

func TestSessionOffsetResumesMidResultSet(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 30)})
	id, status := openSession(t, ts, `{"table":"items","offset":12}`)
	if status != http.StatusCreated {
		t.Fatalf("offset create: status %d", status)
	}
	resp := pullSeq(t, ts, id, 100, 1)
	defer resp.Body.Close()
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("offset 12 of 30 left %d tuples, want 18", len(rows))
	}
	// The first tuple is row 12 — the committed cursor, not the start.
	if got := rows[0][0].String(); got != "12" {
		t.Fatalf("first resumed tuple id = %s, want 12", got)
	}
	if resp.Header.Get(HeaderBlockDone) != "true" {
		t.Fatal("single full-size pull should exhaust the result set")
	}
}

func TestSessionOffsetPastEndYieldsEmptyDoneBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5)})
	id, status := openSession(t, ts, `{"table":"items","offset":99}`)
	if status != http.StatusCreated {
		t.Fatalf("offset-past-end create: status %d", status)
	}
	resp := pullSeq(t, ts, id, 10, 1)
	defer resp.Body.Close()
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || resp.Header.Get(HeaderBlockDone) != "true" {
		t.Fatalf("want empty done-block, got %d tuples done=%s", len(rows), resp.Header.Get(HeaderBlockDone))
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5)})
	if _, status := openSession(t, ts, `{"table":"items","offset":-1}`); status != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d, want 400", status)
	}
}

// faultTrace records, per session key, the sequence of fault decisions a
// request stream received.
func faultTrace(inj *faultInjector, key string, n int) []faultKind {
	out := make([]faultKind, n)
	for i := range out {
		out[i] = inj.decide(key)
	}
	return out
}

// TestFaultStreamsDeterministicPerSession: the faults one session sees
// depend only on (seed, session id) — not on how requests from other
// sessions interleave with it. This is what makes chaos runs reproducible
// under concurrency.
func TestFaultStreamsDeterministicPerSession(t *testing.T) {
	cfg := FaultConfig{DropProb: 0.2, TruncateProb: 0.2, Error503Prob: 0.2}
	const n = 200

	// Serial baseline: each session drained one after the other.
	inj := newFaultInjector(cfg, 42)
	want := map[string][]faultKind{}
	for _, key := range []string{"s1", "s2", "s3"} {
		want[key] = faultTrace(inj, key, n)
	}

	// Interleaved: decisions for the three sessions alternate.
	inj2 := newFaultInjector(cfg, 42)
	got := map[string][]faultKind{"s1": {}, "s2": {}, "s3": {}}
	for i := 0; i < n; i++ {
		for _, key := range []string{"s1", "s2", "s3"} {
			got[key] = append(got[key], inj2.decide(key))
		}
	}
	for key := range want {
		for i := range want[key] {
			if got[key][i] != want[key][i] {
				t.Fatalf("session %s decision %d = %v under interleaving, want %v",
					key, i, got[key][i], want[key][i])
			}
		}
	}

	// Concurrent: same property under racing goroutines.
	inj3 := newFaultInjector(cfg, 42)
	var wg sync.WaitGroup
	conc := map[string][]faultKind{}
	var mu sync.Mutex
	for _, key := range []string{"s1", "s2", "s3"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			tr := faultTrace(inj3, k, n)
			mu.Lock()
			conc[k] = tr
			mu.Unlock()
		}(key)
	}
	wg.Wait()
	for key := range want {
		for i := range want[key] {
			if conc[key][i] != want[key][i] {
				t.Fatalf("session %s decision %d = %v under concurrency, want %v",
					key, i, conc[key][i], want[key][i])
			}
		}
	}

	// Different seeds produce different streams (not a constant function).
	other := faultTrace(newFaultInjector(cfg, 7), "s1", n)
	same := true
	for i := range other {
		if other[i] != want["s1"][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fault stream ignores the seed")
	}
}

// TestFaultStreamForgetResetsStream: a new session reusing an old id (or
// a fresh chaos run) starts the stream over from the seed.
func TestFaultStreamForgetResetsStream(t *testing.T) {
	cfg := FaultConfig{Error503Prob: 0.5}
	inj := newFaultInjector(cfg, 1)
	first := faultTrace(inj, "s1", 50)
	inj.forget("s1")
	second := faultTrace(inj, "s1", 50)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d differs after forget: %v vs %v", i, first[i], second[i])
		}
	}
}

// End-to-end determinism: two identical servers fed identical request
// streams inject identical fault sequences (observable via /stats).
func TestServerFaultInjectionReproducible(t *testing.T) {
	run := func() FaultStats {
		srv, ts := newTestServer(t, Config{
			Catalog: testCatalog(t, 2000),
			Seed:    99,
			Faults:  FaultConfig{Error503Prob: 0.3},
		})
		id, _ := openSession(t, ts, `{"table":"items"}`)
		for seq := 1; seq <= 20; {
			resp := pullSeq(t, ts, id, 100, seq)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				seq++
			} else if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("unexpected status %s", resp.Status)
			}
		}
		return srv.Stats().FaultsInjected
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault stats differ across identical runs: %+v vs %+v", a, b)
	}
	if a.Refused == 0 {
		t.Fatal("expected some injected 503s at p=0.3 over 20+ pulls")
	}
}

// Guard against session-id drift silently changing seeded chaos runs:
// ids are derived from a counter, so the Nth session always gets the same
// id and therefore the same fault stream.
func TestSessionIDsAreStable(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 5)})
	var resp struct {
		Session string `json:"session"`
	}
	r, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("s%08x", 1); resp.Session != want {
		t.Fatalf("first session id = %q, want %q", resp.Session, want)
	}
}
