package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// pullSeq issues one seq-stamped pull and returns the response.
func pullSeq(t *testing.T, ts *httptest.Server, id string, size, seq int) *http.Response {
	t.Helper()
	u := fmt.Sprintf("%s/sessions/%s/next?size=%d&seq=%d", ts.URL, id, size, seq)
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSeqReplayServesIdenticalBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 40)})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	resp := pullSeq(t, ts, id, 15, 1)
	meta, first, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh pull: %s, %v", resp.Status, err)
	}
	if meta.Seq != 1 {
		t.Fatalf("frame seq = %d, want 1", meta.Seq)
	}
	if meta.Replayed {
		t.Fatal("fresh block must not be marked replayed")
	}

	// Re-requesting the same seq replays the buffered bytes verbatim.
	resp = pullSeq(t, ts, id, 15, 1)
	meta, replayed, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replay pull: %s, %v", resp.Status, err)
	}
	if !meta.Replayed {
		t.Fatal("replay not flagged")
	}
	if string(first) != string(replayed) {
		t.Fatal("replayed payload differs from the original block")
	}
	if got := srv.Stats().BlocksReplayed; got != 1 {
		t.Fatalf("BlocksReplayed = %d, want 1", got)
	}

	// The next fresh seq continues the cursor with no skipped tuples.
	resp = pullSeq(t, ts, id, 100, 2)
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("second block has %d rows, want the remaining 25", len(rows))
	}
	if rows[0][0].I != 15 {
		t.Fatalf("second block starts at id %d; replay must not re-advance the cursor", rows[0][0].I)
	}
}

func TestSeqOutsideWindowConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 40)})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	// seq 2 before seq 1 was ever served: out of window.
	resp := pullSeq(t, ts, id, 10, 2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("future seq = %s, want 409", resp.Status)
	}
	resp = pullSeq(t, ts, id, 10, 1)
	resp.Body.Close()
	resp = pullSeq(t, ts, id, 10, 2)
	resp.Body.Close()
	// seq 1 is now behind the replay window (only seq 2 is buffered).
	resp = pullSeq(t, ts, id, 10, 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale seq = %s, want 409", resp.Status)
	}
	// Bad seq values are rejected outright.
	resp = pullSeq(t, ts, id, 10, 0)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seq 0 = %s, want 400", resp.Status)
	}
}

func TestSeqFinalBlockReplayableAfterDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10)})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	resp := pullSeq(t, ts, id, 50, 1)
	meta, _, err := readFrame(resp.Body)
	resp.Body.Close()
	if err != nil || !meta.Done {
		t.Fatal("single-block result should be done")
	}
	// The final block can still be replayed (its response may have been
	// lost in flight) ...
	resp = pullSeq(t, ts, id, 50, 1)
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	resp.Body.Close()
	if err != nil || len(rows) != 10 {
		t.Fatalf("final-block replay: %d rows, %v", len(rows), err)
	}
	// ... but advancing past it reports exhaustion.
	resp = pullSeq(t, ts, id, 50, 2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("past-the-end pull = %s, want 410", resp.Status)
	}
}

// failingCodec wraps a codec and fails the first N encodes.
type failingCodec struct {
	wire.Codec
	mu       sync.Mutex
	failures int
}

func (f *failingCodec) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("injected encode failure")
	}
	return f.Codec.Encode(w, schema, rows)
}

func TestEncodeFailureCountedAndRecoverable(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog: testCatalog(t, 20),
		Codec:   &failingCodec{Codec: wire.XML{}, failures: 1},
	})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	resp := pullSeq(t, ts, id, 20, 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed encode = %s, want 500", resp.Status)
	}
	st := srv.Stats()
	if st.EncodeFailures != 1 {
		t.Fatalf("EncodeFailures = %d, want 1", st.EncodeFailures)
	}
	if st.BlocksServed != 0 || st.TuplesServed != 0 {
		t.Fatalf("served stats counted despite encode failure: %+v", st)
	}
	// The rows were parked, not lost: the same-seq retry re-encodes and
	// delivers all 20 tuples.
	resp = pullSeq(t, ts, id, 20, 1)
	_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("retry after encode failure returned %d rows, want 20", len(rows))
	}
	st = srv.Stats()
	if st.BlocksServed != 1 || st.TuplesServed != 20 {
		t.Fatalf("served stats after recovery: %+v", st)
	}
}

func TestFaultConfigValidated(t *testing.T) {
	bad := []FaultConfig{
		{DropProb: 1.5},
		{Error503Prob: -0.2},
		{DropProb: 0.5, TruncateProb: 0.4, Error503Prob: 0.3}, // sums to 1.2
	}
	for _, cfg := range bad {
		if _, err := New(Config{Catalog: testCatalog(t, 1), Faults: cfg}); err == nil {
			t.Errorf("New accepted invalid fault config %+v", cfg)
		}
	}
	if _, err := New(Config{Catalog: testCatalog(t, 1), Faults: FaultConfig{DropProb: 1}}); err != nil {
		t.Errorf("New rejected valid fault config: %v", err)
	}
}

func TestFaultInjection503(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog: testCatalog(t, 200),
		Faults:  FaultConfig{Error503Prob: 1},
	})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp := pullSeq(t, ts, id, 10, 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pull under 503 fault = %s", resp.Status)
	}
	if srv.Stats().FaultsInjected.Refused == 0 {
		t.Fatal("refused fault not counted")
	}
}

func TestFaultInjectionDropSeversConnection(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog: testCatalog(t, 200),
		Faults:  FaultConfig{DropProb: 1},
	})
	id, _ := openSession(t, ts, `{"table":"items"}`)
	_, err := http.Post(fmt.Sprintf("%s/sessions/%s/next?size=10&seq=1", ts.URL, id), "", nil)
	if err == nil {
		t.Fatal("dropped connection should surface as a transport error")
	}
	if srv.Stats().FaultsInjected.Dropped == 0 {
		t.Fatal("dropped fault not counted")
	}
}

func TestInProcessTransportSurfacesDrops(t *testing.T) {
	srv, err := New(Config{
		Catalog: testCatalog(t, 10),
		Faults:  FaultConfig{DropProb: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hc := InProcessClient(srv)
	resp, err := hc.Post("http://in-process/sessions/nope/next?size=1&seq=1", "", nil)
	if err != nil {
		t.Fatalf("404 path should not fault: %v", err) // unknown session answers before the fault layer
	}
	resp.Body.Close()
	// Open a real session and watch the drop surface as an error, not a
	// panic.
	resp, err = hc.Post("http://in-process/sessions", "application/json",
		strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := hc.Post("http://in-process/sessions/"+cr.Session+"/next?size=5&seq=1", "", nil); err == nil {
		t.Fatal("in-process drop should surface as a transport error")
	}
}

// TestExpireIdleRacesInFlightPull hammers ExpireIdle against concurrent
// pulls: the pull in flight must either complete or surface 404/410 —
// never corrupt state (run under -race).
func TestExpireIdleRacesInFlightPull(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog:    testCatalog(t, 5000),
		SessionTTL: time.Nanosecond, // everything is instantly expirable
	})
	id, _ := openSession(t, ts, `{"table":"items"}`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.ExpireIdle(time.Now().Add(time.Hour))
			}
		}
	}()

	sawGone := false
	for seq := 1; seq <= 50; seq++ {
		resp := pullSeq(t, ts, id, 10, seq)
		switch resp.StatusCode {
		case http.StatusOK:
			_, rows, err := wire.XML{}.Decode(framePayload(resp.Body))
			if err != nil {
				t.Fatalf("seq %d: decode: %v", seq, err)
			}
			if len(rows) != 10 {
				t.Fatalf("seq %d: got %d rows mid-stream", seq, len(rows))
			}
		case http.StatusNotFound:
			// The janitor won the race; the session is gone for good.
			sawGone = true
		default:
			t.Fatalf("seq %d: unexpected status %s", seq, resp.Status)
		}
		resp.Body.Close()
		if sawGone {
			break
		}
	}
	close(stop)
	wg.Wait()
	if !sawGone {
		t.Log("janitor never won the race; pulls stayed consistent throughout")
	}
}
