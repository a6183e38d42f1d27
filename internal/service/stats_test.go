package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// statsSeries lists every counter of Stats beside the /metrics series
// that must be a view of the same atomic.
func statsSeries(st Stats) map[string]int64 {
	return map[string]int64{
		"wsopt_service_sessions_opened_total":                   st.SessionsOpened,
		"wsopt_service_ingests_opened_total":                    st.IngestsOpened,
		"wsopt_service_blocks_served_total":                     st.BlocksServed,
		"wsopt_service_tuples_served_total":                     st.TuplesServed,
		"wsopt_service_blocks_replayed_total":                   st.BlocksReplayed,
		"wsopt_service_sessions_shed_total":                     st.SessionsShed,
		"wsopt_service_encode_failures_total":                   st.EncodeFailures,
		"wsopt_service_blocks_ingested_total":                   st.BlocksIngested,
		"wsopt_service_tuples_ingested_total":                   st.TuplesIngested,
		"wsopt_service_ingest_replays_total":                    st.BlocksIngestReplayed,
		"wsopt_service_push_streams_opened_total":               st.PushStreamsOpened,
		"wsopt_service_push_frames_sent_total":                  st.PushFramesSent,
		"wsopt_service_push_frames_replayed_total":              st.PushFramesReplayed,
		"wsopt_service_push_credit_grants_total":                st.PushCreditGrants,
		"wsopt_service_push_credit_stalls_total":                st.PushCreditStalls,
		"wsopt_service_push_window_clamped_total":               st.PushWindowClamped,
		`wsopt_service_read_ahead_total{outcome="hit"}`:         st.ReadAheadHits,
		`wsopt_service_read_ahead_total{outcome="miss"}`:        st.ReadAheadMisses,
		`wsopt_service_faults_injected_total{kind="dropped"}`:   st.FaultsInjected.Dropped,
		`wsopt_service_faults_injected_total{kind="truncated"}`: st.FaultsInjected.Truncated,
		`wsopt_service_faults_injected_total{kind="refused"}`:   st.FaultsInjected.Refused,
	}
}

// assertViewsAgree checks, counter for counter, that a Stats snapshot and
// a registry snapshot show the same numbers, and that the table above
// names every counter series the service registers.
func assertViewsAgree(t *testing.T, at string, st Stats, snap metrics.Snapshot) {
	t.Helper()
	table := statsSeries(st)
	for series, want := range table {
		got, ok := snap.Counters[series]
		if !ok || got != want {
			t.Errorf("%s: /metrics %s = %d (registered: %v), Stats() = %d", at, series, got, ok, want)
		}
	}
	for series := range snap.Counters {
		if _, ok := table[series]; !ok && strings.HasPrefix(series, "wsopt_service_") {
			t.Errorf("%s: counter series %s has no Stats() field in the table", at, series)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5 s")
		}
	}
}

// TestStatsAndMetricsAreTwoViewsOfOneCounter walks one server through
// every counted event and compares the two views after each step. Each
// step also says what it should have moved, so that 0 == 0 proves nothing.
func TestStatsAndMetricsAreTwoViewsOfOneCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, ts := newTestServer(t, Config{
		Catalog:     testCatalog(t, 40),
		Codec:       &failingCodec{Codec: wire.XML{}, failures: 1},
		MaxSessions: 3,
		Metrics:     reg,
	})
	do := func(resp *http.Response, want int) {
		t.Helper()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %s, want %d", resp.Status, want)
		}
	}
	var a, b, ing string
	var pc *pushConn
	steps := []struct {
		name string
		act  func()
		want func(st Stats) bool
	}{
		{"before traffic", func() {}, func(st Stats) bool { return st == Stats{} }},
		{"create", func() { a, _ = openSession(t, ts, `{"table":"items"}`) },
			func(st Stats) bool { return st.SessionsOpened == 1 }},
		{"encode failure", func() { do(pullSeq(t, ts, a, 10, 1), 500) },
			func(st Stats) bool { return st.EncodeFailures == 1 && st.BlocksServed == 0 }},
		{"block", func() { do(pullSeq(t, ts, a, 10, 1), 200) },
			func(st Stats) bool { return st.BlocksServed == 1 && st.TuplesServed == 10 }},
		{"replay", func() { do(pullSeq(t, ts, a, 10, 1), 200) },
			func(st Stats) bool { return st.BlocksServed == 2 && st.BlocksReplayed == 1 && st.TuplesServed == 20 }},
		{"failed write", func() {
			w := &countingWriter{ResponseRecorder: httptest.NewRecorder(), srv: srv, reg: reg, failed: errors.New("peer gone")}
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, fmt.Sprintf("/sessions/%s/next?size=10&seq=2", a), nil))
			assertViewsAgree(t, "inside the failing write", w.seen, w.seenReg)
			if w.seen.BlocksServed != 3 {
				t.Errorf("inside the failing write: %d blocks served, want 3 (counted before the write)", w.seen.BlocksServed)
			}
		}, func(st Stats) bool { return st.BlocksServed == 2 && st.TuplesServed == 20 }},
		{"stream frame, then a credit stall", func() {
			b, _ = openSession(t, ts, `{"table":"items"}`)
			pc, _ = openStream(t, ts, b, 10, 1, 0)
			if f, err := pc.read(); err != nil || f.Seq != 1 {
				t.Fatalf("frame 1: %+v, %v", f, err)
			}
			waitFor(t, func() bool { return srv.Stats().PushCreditStalls == 1 })
		}, func(st Stats) bool {
			return st.PushStreamsOpened == 1 && st.PushFramesSent == 1 && st.BlocksServed == 3
		}},
		{"reconnect replays the unacked frame", func() {
			pc.close()
			pc, _ = openStream(t, ts, b, 10, 1, 1)
			if f, err := pc.read(); err != nil || f.Seq != 1 || !f.Replay {
				t.Fatalf("replayed frame 1: %+v, %v", f, err)
			}
		}, func(st Stats) bool {
			return st.PushStreamsOpened == 2 && st.PushFramesReplayed == 1 && st.BlocksReplayed == 2
		}},
		{"credit", func() {
			pc.ack(t, 1)
			if f, err := pc.read(); err != nil || f.Seq != 2 {
				t.Fatalf("frame 2: %+v, %v", f, err)
			}
			pc.close()
		}, func(st Stats) bool { return st.PushCreditGrants == 1 && st.PushFramesSent == 3 }},
		{"ingest", func() {
			ing, _ = openIngest(t, ts, `{"table":"items"}`)
			rows := []minidb.Row{{minidb.NewInt(100), minidb.NewString("x")}, {minidb.NewInt(101), minidb.NewString("y")}}
			for range 2 { // the second post of seq 1 is a replay
				resp, err := http.Post(ts.URL+"/ingest/"+ing+"/block?seq=1", "application/xml", encodeItems(t, rows))
				if err != nil {
					t.Fatal(err)
				}
				do(resp, 204)
			}
		}, func(st Stats) bool {
			return st.IngestsOpened == 1 && st.BlocksIngested == 1 && st.TuplesIngested == 2 && st.BlocksIngestReplayed == 1
		}},
		{"shed", func() {
			if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusServiceUnavailable {
				t.Fatalf("fourth cursor under MaxSessions 3: status %d", status)
			}
		}, func(st Stats) bool { return st.SessionsShed == 1 && st.SessionsOpened == 2 }},
		{"a read-ahead the next pull cannot use", func() {
			do(pullSeq(t, ts, a, 10, 3), 200) // size held: block 4 is prepared at 10
			do(pullSeq(t, ts, a, 5, 4), 200)
		}, func(st Stats) bool {
			// The one hit is the failed write's: it took block 2, which the
			// retry of block 1 (size held across the encode failure) prepared.
			return st.ReadAheadMisses == 1 && st.ReadAheadHits == 1
		}},
		{"a read-ahead the next pull takes", func() {
			do(pullSeq(t, ts, a, 5, 5), 200) // size held: block 6 is prepared at 5
			do(pullSeq(t, ts, a, 5, 6), 200)
		}, func(st Stats) bool { return st.ReadAheadHits == 2 && st.ReadAheadMisses == 1 }},
		{"two read-aheads a promising pull cannot use", func() {
			if code := deleteSession(t, ts, b); code != http.StatusNoContent {
				t.Fatalf("delete: %d", code)
			}
			c, _ := openSession(t, ts, `{"table":"items"}`)
			q := Query{Size: 10, Seq: 1, Hold: true} // blocks 2 and 3 are prepared at 10
			resp, err := http.Post(ts.URL+"/sessions/"+c+"/next?"+q.Encode(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			do(resp, 200)
			do(pullSeq(t, ts, c, 5, 2), 200)
		}, func(st Stats) bool {
			// One miss per prepared block dropped.
			return st.ReadAheadMisses == 3 && st.ReadAheadHits == 2 && st.SessionsOpened == 3
		}},
	}
	for _, step := range steps {
		step.act()
		st := srv.Stats()
		assertViewsAgree(t, "after "+step.name, st, reg.Snapshot())
		if !step.want(st) {
			t.Fatalf("after %s: unexpected Stats %+v", step.name, st)
		}
	}

	// The three injected faults, each on a server that always fires it.
	for kind, faults := range map[string]FaultConfig{
		"refused": {Error503Prob: 1}, "dropped": {DropProb: 1}, "truncated": {TruncateProb: 1},
	} {
		reg := metrics.NewRegistry()
		srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 40), Faults: faults, Metrics: reg})
		id, _ := openSession(t, ts, `{"table":"items"}`)
		if resp, err := http.Post(fmt.Sprintf("%s/sessions/%s/next?size=10&seq=1", ts.URL, id), "", nil); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		st := srv.Stats()
		assertViewsAgree(t, "after a "+kind+" fault", st, reg.Snapshot())
		if f := st.FaultsInjected; f.Refused+f.Dropped+f.Truncated != 1 || st.BlocksServed != 0 {
			t.Errorf("after a %s fault: %+v, %d blocks served; want exactly that fault and no block", kind, f, st.BlocksServed)
		}
	}
}

// TestBlockEncodeHistogramCountsEncodesNotServes: block_encode_ms is the
// encode stage of a block's serve time, so it has one observation per
// block the codec encoded — not per block served. A cache hit and a
// same-seq replay write bytes that already exist and observe nothing.
func TestBlockEncodeHistogramCountsEncodesNotServes(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, ts := newTestServer(t, Config{
		Catalog: testCatalog(t, 100),
		Codec:   wire.Gzip(wire.XML{}),
		Cache:   newTestCache(t, 1<<20),
		Metrics: reg,
	})
	encodes := func() int64 { return reg.Snapshot().Histogram("wsopt_service_block_encode_ms").Count }

	const size = 40
	cold, _ := openSession(t, ts, `{"table":"items"}`)
	blocks := 0
	for done := false; !done; {
		blocks++
		_, done = pullBody(t, ts, cold, size, blocks)
	}
	if got := encodes(); got != int64(blocks) {
		t.Fatalf("cold pull of %d blocks: %d encodes observed", blocks, got)
	}
	pullBody(t, ts, cold, size, blocks) // same-seq replay
	hot, _ := openSession(t, ts, `{"table":"items"}`)
	for seq := 1; seq <= blocks; seq++ {
		pullBody(t, ts, hot, size, seq) // cache hits
	}
	if got := encodes(); got != int64(blocks) {
		t.Errorf("after a replay and %d cache hits: %d encodes observed, want still %d", blocks, got, blocks)
	}
	if served := srv.Stats().BlocksServed; served != int64(2*blocks+1) {
		t.Errorf("%d blocks served, want %d", served, 2*blocks+1)
	}
}

// TestGzipBlockCarriesNoContentEncoding: a +gzip codec compresses the
// block, not the HTTP message. Were the response to say Content-Encoding:
// gzip, net/http's transport would inflate the body on its own and the
// client's codec would be handed XML where it expects a gzip member; the
// codec name both ends are started with is the only agreement there is.
func TestGzipBlockCarriesNoContentEncoding(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 30), Codec: wire.Gzip(wire.XML{})})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp := pullSeq(t, ts, id, 30, 1)
	defer resp.Body.Close()
	if ce, ok := resp.Header["Content-Encoding"]; ok {
		t.Errorf("Content-Encoding: %q on an xml+gzip block", ce)
	}
	if resp.Uncompressed {
		t.Error("the transport inflated the body behind the codec's back")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q, want the framing's", ct)
	}
	if _, rows, err := wire.Gzip(wire.XML{}).Decode(framePayload(resp.Body)); err != nil || len(rows) != 30 {
		t.Fatalf("body is not an xml+gzip block: %d rows, %v", len(rows), err)
	}
}
