package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/replica"
	"wsopt/internal/resilience"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

func testCatalog(t *testing.T, rows int) *minidb.Catalog {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "label", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("item-%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	return cat
}

// testBackend is one in-process wsblockd.
type testBackend struct {
	ts   *httptest.Server
	rlog *replica.Log
}

// kill severs the backend abruptly: in-flight and future connections
// fail at the transport level, like a SIGKILLed process.
func (b *testBackend) kill() {
	b.ts.CloseClientConnections()
	b.ts.Close()
}

// newFleet starts n backends over the same catalog. replicated controls
// whether they ship a replication feed.
func newFleet(t *testing.T, n, rows int, replicated bool) []*testBackend {
	t.Helper()
	cat := testCatalog(t, rows)
	fleet := make([]*testBackend, n)
	for i := range fleet {
		var rlog *replica.Log
		if replicated {
			rlog = replica.NewLog(1024)
		}
		srv, err := service.New(service.Config{Catalog: cat, Replica: rlog})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		fleet[i] = &testBackend{ts: ts, rlog: rlog}
	}
	return fleet
}

// newTestGateway builds a gateway over the fleet with test-friendly
// knobs: instant breaker trips, a long cooldown (a dead backend stays
// dead for the whole test), and a fast replication pull.
func newTestGateway(t *testing.T, fleet []*testBackend, mutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
	}
	cfg := Config{
		Backends:     urls,
		Breaker:      resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
		PullInterval: 2 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	gw.Start(ctx)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func openSession(t *testing.T, base, body string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("create: %s: %s", resp.Status, msg)
	}
	var cr struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return cr.Session, resp
}

func pull(t *testing.T, base, id string, size int, seq uint64) *http.Response {
	t.Helper()
	return pullQuery(t, base, id, service.Query{Size: size, Seq: seq})
}

func pullQuery(t testing.TB, base, id string, q service.Query) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/sessions/"+id+"/next?"+q.Encode(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readFrame reads a /next 200's body, one data frame, and closes it: the
// block's metadata and payload. Another status, another frame type, a
// short frame or bytes after it fail the test.
func readFrame(t testing.TB, resp *http.Response) (service.BlockMeta, []byte) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s (%v): %s", resp.Status, err, body)
	}
	f, n, err := wire.ParseFrameHeader(body, 0)
	switch {
	case err != nil:
	case f.Type != wire.FrameData:
		err = fmt.Errorf("frame type 0x%02x", f.Type)
	case wire.FrameHeaderLen+n != len(body):
		err = fmt.Errorf("a frame of %d payload bytes", n)
	}
	if err != nil {
		t.Fatalf("a %d-byte body that is not one data frame: %v", len(body), err)
	}
	return service.FrameMeta(f), body[wire.FrameHeaderLen:]
}

// backendURL is the URL of the backend a block's frame names (Stats lists
// the backends in their frame order), or "" when it names none.
func backendURL(gw *Gateway, m service.BlockMeta) string {
	if m.Backend == 0 {
		return ""
	}
	return gw.Stats().Backends[m.Backend-1].URL
}

// decodeIDs decodes a block payload and returns the id column values.
func decodeIDs(t *testing.T, payload []byte) []int64 {
	t.Helper()
	_, rows, err := wire.XML{}.Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("decode block: %v", err)
	}
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].I
	}
	return ids
}

// drainSession pulls blocks of size until done, starting at seq start,
// asserting frame headers along the way. Returns all ids seen and the max
// failover count observed.
func drainSession(t *testing.T, base, id string, size int, start uint64) (ids []int64, failovers int) {
	t.Helper()
	for seq := start; ; seq++ {
		meta, body := readFrame(t, pull(t, base, id, size, seq))
		if meta.Seq != seq {
			t.Fatalf("seq %d: frame seq = %d", seq, meta.Seq)
		}
		failovers = max(failovers, meta.Failovers)
		ids = append(ids, decodeIDs(t, body)...)
		if meta.Done {
			return ids, failovers
		}
	}
}

// wantExactly asserts ids are exactly 0..rows-1, each exactly once — the
// zero-duplicate, zero-loss exactness check.
func wantExactly(t *testing.T, ids []int64, rows int) {
	t.Helper()
	if len(ids) != rows {
		t.Fatalf("got %d tuples, want %d", len(ids), rows)
	}
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate tuple id %d", id)
		}
		seen[id] = true
	}
	for i := 0; i < rows; i++ {
		if !seen[int64(i)] {
			t.Fatalf("lost tuple id %d", i)
		}
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// backendFor maps a X-WSGate-Backend header to its fleet entry.
func backendFor(t *testing.T, fleet []*testBackend, url string) *testBackend {
	t.Helper()
	for _, b := range fleet {
		if b.ts.URL == url {
			return b
		}
	}
	t.Fatalf("unknown backend %q", url)
	return nil
}

func TestGatewayProxiesFullScan(t *testing.T) {
	const rows = 100
	fleet := newFleet(t, 3, rows, true)
	gw, ts := newTestGateway(t, fleet, nil)

	id, resp := openSession(t, ts.URL, `{"table":"items"}`)
	if got := resp.Header.Get(service.HeaderGatewayTransparentFailover); got != "true" {
		t.Fatalf("%s = %q, want true", service.HeaderGatewayTransparentFailover, got)
	}
	if !strings.HasPrefix(id, "g") {
		t.Fatalf("gateway session id %q does not mask the backend id", id)
	}

	ids, failovers := drainSession(t, ts.URL, id, 30, 1)
	wantExactly(t, ids, rows)
	if failovers != 0 {
		t.Fatalf("healthy run reported %d failovers", failovers)
	}
	st := gw.Stats()
	if st.BlocksProxied != 4 || st.TuplesProxied != rows || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var sessions int64
	for _, b := range st.Backends {
		sessions += b.Sessions
	}
	if sessions != 1 {
		t.Fatalf("sessions by backend sum to %d, want 1", sessions)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", dresp.Status)
	}
	if gw.SessionCount() != 0 {
		t.Fatalf("session count %d after delete", gw.SessionCount())
	}
}

func TestGatewayReplayAndSeqValidation(t *testing.T) {
	fleet := newFleet(t, 2, 50, true)
	_, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	_, b1 := readFrame(t, pull(t, ts.URL, id, 10, 1))

	// Verbatim replay of the last seq.
	again, b2 := readFrame(t, pull(t, ts.URL, id, 10, 1))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replay: equal=%v", bytes.Equal(b1, b2))
	}
	if !again.Replayed {
		t.Fatal("replay not flagged")
	}

	// A seq outside the replay window is a 409.
	conflict := pull(t, ts.URL, id, 10, 4)
	io.Copy(io.Discard, conflict.Body)
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict {
		t.Fatalf("far-future seq: %s, want 409", conflict.Status)
	}

	// Exhaust, then pulling past the end is a 410.
	ids, _ := drainSession(t, ts.URL, id, 25, 2)
	if len(ids) != 40 {
		t.Fatalf("drained %d tuples after first block of 10, want 40", len(ids))
	}
	gone := pull(t, ts.URL, id, 10, 4)
	io.Copy(io.Discard, gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusGone {
		t.Fatalf("pull past done: %s, want 410", gone.Status)
	}
}

func TestGatewayEdgeAdmission(t *testing.T) {
	fleet := newFleet(t, 2, 50, true)
	gw, ts := newTestGateway(t, fleet, func(c *Config) {
		c.MaxSessions = 1
		c.RetryAfter = 2 * time.Second
	})
	gw.SetAdmissionPressure(1.5)

	id, _ := openSession(t, ts.URL, `{"table":"items"}`)
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create: %s, want 503", resp.Status)
	}
	// Retry-After is priced by the regulator's pressure: 2s * (1+1.5) = 5s.
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After = %q, want 5", ra)
	}
	if ms := resp.Header.Get(service.HeaderRetryAfterMS); ms != "5000.000" {
		t.Fatalf("%s = %q", service.HeaderRetryAfterMS, ms)
	}
	if p := resp.Header.Get(service.HeaderAdmissionPressure); p != "1.5000" {
		t.Fatalf("%s = %q", service.HeaderAdmissionPressure, p)
	}
	if gw.Stats().SessionsShed != 1 {
		t.Fatalf("sessions_shed = %d", gw.Stats().SessionsShed)
	}

	// The regulator can widen the ceiling at runtime (Sink interface).
	gw.SetSessionLimit(2)
	id2, _ := openSession(t, ts.URL, `{"table":"items"}`)

	// Closing a session frees its admission slot.
	for _, sid := range []string{id, id2} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+sid, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
	}
	gw.SetSessionLimit(1)
	id3, _ := openSession(t, ts.URL, `{"table":"items"}`)
	_ = id3
}

// TestAdmissionPricingParity: both tiers hold the one admission
// implementation, so for the same base hint and pressure a shed create
// on a backend and on the gateway must carry byte-identical pricing
// headers.
func TestAdmissionPricingParity(t *testing.T) {
	shed := func(base string) http.Header {
		t.Helper()
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("over-limit create on %s: %s, want 503", base, resp.Status)
		}
		return resp.Header
	}
	for _, tc := range []struct {
		base     time.Duration
		pressure float64
	}{
		{0, 0},
		{time.Second, 0.5},
		{1500 * time.Millisecond, 0},
		{200 * time.Millisecond, 2},
		{100 * time.Microsecond, 0},
		{time.Second, math.NaN()},
		{2 * time.Second, 7.25},
	} {
		srv, err := service.New(service.Config{Catalog: testCatalog(t, 5), MaxSessions: 1, RetryAfter: tc.base})
		if err != nil {
			t.Fatal(err)
		}
		direct := httptest.NewServer(srv.Handler())
		t.Cleanup(direct.Close)
		gw, edge := newTestGateway(t, newFleet(t, 1, 5, false), func(c *Config) {
			c.MaxSessions = 1
			c.RetryAfter = tc.base
		})
		srv.SetAdmissionPressure(tc.pressure)
		gw.SetAdmissionPressure(tc.pressure)
		openSession(t, direct.URL, `{"table":"items"}`)
		openSession(t, edge.URL, `{"table":"items"}`)

		fromService, fromGateway := shed(direct.URL), shed(edge.URL)
		for _, h := range []string{"Retry-After", service.HeaderRetryAfterMS, service.HeaderAdmissionPressure} {
			if s, g := fromService.Get(h), fromGateway.Get(h); s == "" || s != g {
				t.Errorf("base %v pressure %g: %s = %q on the service, %q on the gateway", tc.base, tc.pressure, h, s, g)
			}
		}
	}
}

// TestGatewayFailoverFresh kills the primary between pulls: the next
// FRESH pull must be served by a promoted successor with translated
// seqs, and the full scan must deliver every tuple exactly once.
func TestGatewayFailoverFresh(t *testing.T) {
	const rows = 90
	fleet := newFleet(t, 3, rows, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	meta, body := readFrame(t, pull(t, ts.URL, id, 20, 1))
	ids := decodeIDs(t, body)
	primary := backendURL(gw, meta)

	backendFor(t, fleet, primary).kill()

	rest, failovers := drainSession(t, ts.URL, id, 20, 2)
	wantExactly(t, append(ids, rest...), rows)
	if failovers != 1 {
		t.Fatalf("client saw %d failovers, want 1", failovers)
	}
	st := gw.Stats()
	if st.Failovers != 1 {
		t.Fatalf("gateway failovers = %d, want 1", st.Failovers)
	}
	if st.StandbyReplays != 0 || st.FallbackReplays != 0 {
		t.Fatalf("fresh failover used a replay path: %+v", st)
	}
	for _, b := range st.Backends {
		if b.URL == primary && b.Sessions != 0 {
			t.Fatalf("dead primary still owns %d sessions", b.Sessions)
		}
	}
}

// TestGatewayFailoverStandbyReplay kills the primary after a block was
// committed and replicated, then retries that seq: the gateway must
// serve the byte-identical standby copy — including on a second retry —
// and resume fresh pulls on the successor without duplicating or losing
// tuples.
func TestGatewayFailoverStandbyReplay(t *testing.T) {
	const rows = 60
	fleet := newFleet(t, 2, rows, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	meta, committed := readFrame(t, pull(t, ts.URL, id, 25, 1))
	primary := backendURL(gw, meta)

	// Wait until the standby store has applied the create + commit.
	waitFor(t, 2*time.Second, "replication to catch up", func() bool {
		for _, b := range gw.Stats().Backends {
			if b.URL == primary {
				return b.Applied >= 2 && b.LagRecords == 0
			}
		}
		return false
	})
	backendFor(t, fleet, primary).kill()

	for attempt := 1; attempt <= 2; attempt++ {
		retry, replayed := readFrame(t, pull(t, ts.URL, id, 25, 1))
		if !bytes.Equal(replayed, committed) {
			t.Fatalf("retry %d: replayed block differs from the committed block", attempt)
		}
		if !retry.Replayed {
			t.Fatalf("retry %d not flagged as replay", attempt)
		}
	}
	st := gw.Stats()
	if st.StandbyReplays != 2 || st.FallbackReplays != 0 || st.Failovers != 1 {
		t.Fatalf("standby=%d fallback=%d failovers=%d, want 2/0/1",
			st.StandbyReplays, st.FallbackReplays, st.Failovers)
	}

	rest, _ := drainSession(t, ts.URL, id, 25, 2)
	wantExactly(t, append(decodeIDs(t, committed), rest...), rows)
}

// TestGatewayFailoverFallbackReplay runs backends WITHOUT a replication
// feed: a post-kill retry cannot be served from a standby copy, so the
// gateway re-opens the successor at the pre-block cursor and re-pulls
// the same rows (deterministic data makes the block identical).
func TestGatewayFailoverFallbackReplay(t *testing.T) {
	const rows = 60
	fleet := newFleet(t, 2, rows, false)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	meta, committed := readFrame(t, pull(t, ts.URL, id, 25, 1))
	primary := backendURL(gw, meta)
	backendFor(t, fleet, primary).kill()

	_, replayed := readFrame(t, pull(t, ts.URL, id, 25, 1))
	if !bytes.Equal(replayed, committed) {
		t.Fatal("fallback re-pull produced a different block")
	}
	st := gw.Stats()
	if st.FallbackReplays != 1 || st.StandbyReplays != 0 || st.Failovers != 1 {
		t.Fatalf("standby=%d fallback=%d failovers=%d, want 0/1/1",
			st.StandbyReplays, st.FallbackReplays, st.Failovers)
	}

	rest, _ := drainSession(t, ts.URL, id, 25, 2)
	wantExactly(t, append(decodeIDs(t, committed), rest...), rows)
}

// TestGatewayStandbyReplayOfFinalBlock is the regression test for the
// stale-seqBase bug: when the standby copy replayed after a failover was
// the FINAL block, the gateway skipped re-opening a successor session but
// also left seqBase and backendID stale. A second client retry of that
// seq then missed the standby fast-path, routed the dead primary's
// session id to the healthy promoted backend, got a 404, marked the
// healthy breaker failed, and cascaded failovers. Every repeat retry
// must serve the standby copy with exactly one failover.
func TestGatewayStandbyReplayOfFinalBlock(t *testing.T) {
	const rows = 20
	fleet := newFleet(t, 2, rows, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	// size > rows: block 1 is the final block.
	meta, final := readFrame(t, pull(t, ts.URL, id, rows+5, 1))
	if !meta.Done {
		t.Fatal("first block not final; test setup broken")
	}
	primary := backendURL(gw, meta)
	waitFor(t, 2*time.Second, "replication to catch up", func() bool {
		for _, b := range gw.Stats().Backends {
			if b.URL == primary {
				return b.Applied >= 2 && b.LagRecords == 0
			}
		}
		return false
	})
	backendFor(t, fleet, primary).kill()

	for attempt := 1; attempt <= 3; attempt++ {
		retry, replayed := readFrame(t, pull(t, ts.URL, id, rows+5, 1))
		if !bytes.Equal(replayed, final) {
			t.Fatalf("retry %d: replayed final block differs from the committed one", attempt)
		}
		if !retry.Replayed {
			t.Fatalf("retry %d not flagged as replay", attempt)
		}
	}
	st := gw.Stats()
	if st.Failovers != 1 || st.StandbyReplays != 3 {
		t.Fatalf("failovers=%d standby=%d, want 1/3", st.Failovers, st.StandbyReplays)
	}
	// The healthy survivor's breaker must not have been poisoned by a
	// misrouted retry.
	for _, b := range st.Backends {
		if b.URL != primary && b.State != "closed" {
			t.Fatalf("surviving backend breaker is %s, want closed", b.State)
		}
	}
	// Closing the done session works even though it has no live backend
	// half anymore.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete after final-block failover: %s", dresp.Status)
	}
}

// TestGatewayStandbyGuardRejectsForeignState poisons the standby store
// with state that carries the session's id and seq but a different
// committed cursor — exactly what id reuse across a backend restart can
// produce. The failover must refuse the byte replay and fall back to the
// deterministic re-pull, which serves the correct bytes.
func TestGatewayStandbyGuardRejectsForeignState(t *testing.T) {
	const rows = 60
	fleet := newFleet(t, 2, rows, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	meta, committed := readFrame(t, pull(t, ts.URL, id, 25, 1))
	primary := backendURL(gw, meta)
	waitFor(t, 2*time.Second, "replication to catch up", func() bool {
		for _, b := range gw.Stats().Backends {
			if b.URL == primary {
				return b.Applied >= 2 && b.LagRecords == 0
			}
		}
		return false
	})

	gw.mu.Lock()
	sess := gw.sessions[id]
	gw.mu.Unlock()
	sess.mu.Lock()
	bid := sess.backendID
	sess.mu.Unlock()
	gw.backends[meta.Backend-1].store.Apply(replica.Record{
		Op: replica.OpCommit, Session: bid, Seq: 1,
		Committed: 999, Tuples: 25, Codec: "xml", Payload: []byte("<forged/>"),
	})
	backendFor(t, fleet, primary).kill()

	_, replayed := readFrame(t, pull(t, ts.URL, id, 25, 1))
	if bytes.Contains(replayed, []byte("forged")) {
		t.Fatal("gateway replayed foreign standby state")
	}
	if !bytes.Equal(replayed, committed) {
		t.Fatal("fallback re-pull produced a different block")
	}
	st := gw.Stats()
	if st.StandbyReplays != 0 || st.FallbackReplays != 1 {
		t.Fatalf("standby=%d fallback=%d, want 0/1", st.StandbyReplays, st.FallbackReplays)
	}

	rest, _ := drainSession(t, ts.URL, id, 25, 2)
	wantExactly(t, append(decodeIDs(t, committed), rest...), rows)
}

// TestGatewayExpiresIdleSessions checks the gateway-side janitor: idle
// sessions are dropped, their admission slots released, and the expired
// id is gone for the client.
func TestGatewayExpiresIdleSessions(t *testing.T) {
	fleet := newFleet(t, 2, 50, true)
	gw, ts := newTestGateway(t, fleet, func(c *Config) {
		c.MaxSessions = 1
		c.SessionTTL = 10 * time.Millisecond
	})
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)
	resp := pull(t, ts.URL, id, 10, 1)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if n := gw.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ExpireIdle = %d, want 1", n)
	}
	if gw.SessionCount() != 0 {
		t.Fatalf("session count = %d after expiry", gw.SessionCount())
	}
	st := gw.Stats()
	if st.SessionsExpired != 1 {
		t.Fatalf("sessions_expired = %d, want 1", st.SessionsExpired)
	}
	var owned int64
	for _, b := range st.Backends {
		owned += b.Sessions
	}
	if owned != 0 {
		t.Fatalf("backends still own %d sessions after expiry", owned)
	}

	// The expired session is gone for the client ...
	gone := pull(t, ts.URL, id, 10, 2)
	io.Copy(io.Discard, gone.Body)
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("pull on expired session: %s, want 404", gone.Status)
	}
	// ... and its admission slot was released: with MaxSessions 1, a new
	// create must be admitted, not shed.
	id2, _ := openSession(t, ts.URL, `{"table":"items"}`)
	_ = id2
	if got := gw.Stats().SessionsShed; got != 0 {
		t.Fatalf("sessions_shed = %d after expiry freed the slot, want 0", got)
	}
}

// TestGatewayStatsDoesNotBlockOnBusySession is the regression test for
// the Stats lock-ordering stall: Stats used to take each sess.mu while
// holding g.mu, so one pull hung on a slow backend (sess.mu held across
// the whole round-trip) froze every create/next/delete for its duration.
// Stats may wait on the busy session, but the gateway must keep serving.
func TestGatewayStatsDoesNotBlockOnBusySession(t *testing.T) {
	fleet := newFleet(t, 2, 40, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)

	// Model a pull hung mid-backend-round-trip: sess.mu held.
	gw.mu.Lock()
	busy := gw.sessions[id]
	gw.mu.Unlock()
	busy.mu.Lock()

	statsDone := make(chan Stats, 1)
	go func() { statsDone <- gw.Stats() }()

	// While Stats waits on the busy session, a create must still go
	// through (it needs g.mu, which Stats must not be holding).
	created := make(chan error, 1)
	go func() {
		hc := &http.Client{Timeout: 2 * time.Second}
		resp, err := hc.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				err = fmt.Errorf("create returned %s", resp.Status)
			}
		}
		created <- err
	}()
	select {
	case err := <-created:
		if err != nil {
			t.Fatalf("create while Stats waited on a busy session: %v", err)
		}
	case <-time.After(5 * time.Second):
		busy.mu.Unlock()
		t.Fatal("create blocked while Stats waited on a busy session")
	}

	busy.mu.Unlock()
	select {
	case st := <-statsDone:
		if len(st.Sessions) < 1 {
			t.Fatalf("stats lists %d sessions, want >= 1", len(st.Sessions))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats never returned after the session lock was released")
	}
}

// TestGatewayRoutesNewSessionsAroundDeadBackend kills one backend and
// checks that, once its breaker opens, every new session lands on a
// live one — health-aware rebalancing for new sessions.
func TestGatewayRoutesNewSessionsAroundDeadBackend(t *testing.T) {
	fleet := newFleet(t, 3, 30, true)
	gw, ts := newTestGateway(t, fleet, nil)

	dead := fleet[0]
	dead.kill()
	// The replication puller is the death detector: it trips the breaker
	// without any client traffic.
	waitFor(t, 2*time.Second, "breaker to open", func() bool {
		for _, b := range gw.Stats().Backends {
			if b.URL == dead.ts.URL {
				return b.State == "open"
			}
		}
		return false
	})

	for i := 0; i < 8; i++ {
		id, _ := openSession(t, ts.URL, `{"table":"items"}`)
		for _, s := range gw.Stats().Sessions {
			if s.ID == id && s.Backend == dead.ts.URL {
				t.Fatalf("session %s placed on the dead backend", id)
			}
		}
	}
	for _, b := range gw.Stats().Backends {
		if b.URL == dead.ts.URL && b.Sessions != 0 {
			t.Fatalf("dead backend owns %d sessions", b.Sessions)
		}
	}
}

// TestGatewayStatsAndMetricsExport spot-checks the aggregate /stats and
// /metrics surfaces the operator (and the e2e chaos test) rely on.
func TestGatewayStatsAndMetricsExport(t *testing.T) {
	fleet := newFleet(t, 2, 40, true)
	gw, ts := newTestGateway(t, fleet, nil)
	id, _ := openSession(t, ts.URL, `{"table":"items"}`)
	resp := pull(t, ts.URL, id, 40, 1)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var st Stats
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.SessionsOpened != 1 || st.BlocksProxied != 1 || st.TuplesProxied != 40 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Backends) != 2 {
		t.Fatalf("stats lists %d backends", len(st.Backends))
	}
	found := false
	for _, s := range st.Sessions {
		if s.ID == id && s.LastSeq == 1 && s.Committed == 40 {
			found = true
		}
	}
	if !found {
		t.Fatalf("session %s missing from stats: %+v", id, st.Sessions)
	}
	if gw.BlockServeSnapshot().Count != 1 {
		t.Fatalf("block-serve histogram count = %d", gw.BlockServeSnapshot().Count)
	}
}
