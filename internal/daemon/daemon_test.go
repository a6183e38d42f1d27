package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"wsopt/internal/gateway"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/service"
)

func testCatalog(t *testing.T, rows int) *minidb.Catalog {
	t.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("items", minidb.Schema{{Name: "id", Type: minidb.Int64}, {Name: "label", Type: minidb.String}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]minidb.Row, rows)
	for i := range batch {
		batch[i] = minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("item-%d", i))}
	}
	if err := tbl.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	return cat
}

// testFlags parses args into the shared group under a test wording.
func testFlags(t *testing.T, pprof bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, Wording{Name: "wstest", Addr: ":0", Admission: "admission control", Regulation: "SLO regulation", Pprof: pprof})
	if err := fs.Parse(append([]string{"-addr=127.0.0.1:0"}, args...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

// running is one Daemon.Run in flight: its announce lines as they are
// printed, its cancel, and its result.
type running struct {
	lines  chan string
	cancel context.CancelFunc
	done   chan error
}

func start(t *testing.T, d Daemon) *running {
	t.Helper()
	pr, pw := io.Pipe()
	d.Out = pw
	if d.Logger == nil {
		d.Logger = log.New(io.Discard, "", 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{lines: make(chan string, 8), cancel: cancel, done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			r.lines <- sc.Text()
		}
	}()
	go func() {
		r.done <- d.Run(ctx)
		pw.Close()
	}()
	t.Cleanup(func() {
		cancel()
		pr.Close()
	})
	return r
}

// announced waits for the next stdout line and returns the address in it.
func (r *running) announced(t *testing.T, re string) (line, addr string) {
	t.Helper()
	select {
	case line = <-r.lines:
	case err := <-r.done:
		t.Fatalf("Run returned %v before announcing %s", err, re)
	case <-time.After(5 * time.Second):
		t.Fatalf("no announce line matching %s", re)
	}
	m := regexp.MustCompile(re).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("announce line %q does not match %s", line, re)
	}
	return line, m[1]
}

func (r *running) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("Run = %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// tapped is a Tier that reports when a block request has reached its
// handler, so a test can cancel while that block is provably in flight.
type tapped struct {
	Tier
	entered chan struct{}
}

func tap(tier Tier) *tapped { return &tapped{Tier: tier, entered: make(chan struct{}, 1)} }

func (tt *tapped) Handler() http.Handler {
	h := tt.Tier.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/next") {
			tt.entered <- struct{}{}
		}
		h.ServeHTTP(w, r)
	})
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func openSession(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr struct{ Session string }
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil || cr.Session == "" {
		t.Fatalf("create: %s, %v", resp.Status, err)
	}
	return cr.Session
}

// TestRunAnnouncesServesAndDrains drives the chassis on 127.0.0.1:0 with
// each tier: the two stdout announce lines in their order and shape (the
// e2e tests and operators' scripts parse them), /metrics and /healthz on
// the metrics plane with pprof only where the wording asks for it, the
// regulator's series when -slo-p95-ms is set — and a cancel that lets the
// block in flight finish before Run returns.
func TestRunAnnouncesServesAndDrains(t *testing.T) {
	// Every block sleeps its 300 simulated ms in full: long enough for the
	// cancel to land while one is in flight.
	slow := service.Config{Catalog: testCatalog(t, 100), CostModel: netsim.CostModel{LatencyMS: 300}, SleepScale: 1}

	t.Run("service", func(t *testing.T) {
		f := testFlags(t, true, "-metrics-addr=127.0.0.1:0", "-slo-p95-ms=500", "-max-sessions=8")
		reg := NewRegistry()
		cfg := slow
		cfg.Metrics, cfg.MaxSessions = reg, f.MaxSessions
		srv, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var logged strings.Builder
		tier := tap(srv)
		r := start(t, Daemon{Flags: f, Tier: tier, Registry: reg, Listening: " (codec=xml)", Logger: log.New(&logged, "", 0)})
		_, maddr := r.announced(t, `^wstest metrics on (127\.0\.0\.1:\d+)$`)
		_, addr := r.announced(t, `^wstest listening on (127\.0\.0\.1:\d+) \(codec=xml\)$`)

		if code, body := get(t, "http://"+maddr+"/healthz"); code != 200 || body != "ok\n" {
			t.Errorf("/healthz = %d %q", code, body)
		}
		code, body := get(t, "http://"+maddr+"/metrics")
		for _, series := range []string{"wsopt_service_blocks_served_total 0", "wsopt_regulator_slo_p95_ms 500", "wsopt_service_session_limit 8", "go_goroutines"} {
			if code != 200 || !strings.Contains(body, series) {
				t.Errorf("/metrics = %d, missing %q", code, series)
			}
		}
		if code, _ := get(t, "http://"+maddr+"/debug/pprof/cmdline"); code != 200 {
			t.Errorf("/debug/pprof/cmdline = %d with Pprof set", code)
		}
		if code, _ := get(t, "http://"+addr+"/metrics"); code != 404 {
			t.Errorf("/metrics on the block listener = %d, want 404", code)
		}

		id := openSession(t, "http://"+addr)
		type result struct {
			code, n int
			err     error
		}
		got := make(chan result, 1)
		go func() {
			resp, err := http.Post(fmt.Sprintf("http://%s/sessions/%s/next?size=10&seq=1", addr, id), "", nil)
			if err != nil {
				got <- result{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			got <- result{resp.StatusCode, len(body), err}
		}()
		<-tier.entered // the block is now sleeping its delay
		r.stop(t)
		res := <-got
		if res.err != nil || res.code != 200 || res.n == 0 {
			t.Fatalf("block in flight at cancel: status %d, %d bytes, err %v; want it served in full", res.code, res.n, res.err)
		}
		if st := srv.Stats(); st.BlocksServed != 1 || st.TuplesServed != 10 {
			t.Errorf("after the drain: %d blocks / %d tuples served, want 1 / 10", st.BlocksServed, st.TuplesServed)
		}
		if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
			t.Error("block listener still accepts after Run returned")
		}
		for _, want := range []string{"admission control: max 8 concurrent sessions", "SLO regulation: p95 <= 500ms, proportional law, limit in [1, 8]", "shutting down"} {
			if !strings.Contains(logged.String(), want) {
				t.Errorf("stderr announce %q missing from:\n%s", want, logged.String())
			}
		}
	})

	t.Run("gateway", func(t *testing.T) {
		backend, err := service.New(slow)
		if err != nil {
			t.Fatal(err)
		}
		bf := testFlags(t, false)
		b := start(t, Daemon{Flags: bf, Tier: backend, Registry: NewRegistry()})
		_, baddr := b.announced(t, `^wstest listening on (127\.0\.0\.1:\d+)$`)

		f := testFlags(t, false, "-metrics-addr=127.0.0.1:0")
		reg := NewRegistry()
		gw, err := gateway.New(gateway.Config{Backends: []string{"http://" + baddr}, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		tier := tap(gw)
		r := start(t, Daemon{Flags: f, Tier: tier, Registry: reg, Background: gw.Start})
		_, maddr := r.announced(t, `^wstest metrics on (127\.0\.0\.1:\d+)$`)
		_, addr := r.announced(t, `^wstest listening on (127\.0\.0\.1:\d+)$`)
		if code, body := get(t, "http://"+maddr+"/metrics"); code != 200 || !strings.Contains(body, "wsopt_gateway_blocks_proxied_total 0") {
			t.Errorf("/metrics = %d, gateway series missing", code)
		}
		if code, _ := get(t, "http://"+maddr+"/debug/pprof/cmdline"); code != 404 {
			t.Errorf("/debug/pprof/cmdline = %d without Pprof, want 404", code)
		}
		id := openSession(t, "http://"+addr)
		got := make(chan int, 1)
		go func() {
			resp, err := http.Post(fmt.Sprintf("http://%s/sessions/%s/next?size=10&seq=1", addr, id), "", nil)
			if err != nil {
				got <- 0
				return
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if n == 0 {
				got <- 0
				return
			}
			got <- resp.StatusCode
		}()
		<-tier.entered
		r.stop(t)
		if code := <-got; code != 200 {
			t.Fatalf("proxied block in flight at cancel: status %d, want 200 with its body", code)
		}
		if st := gw.Stats(); st.BlocksProxied != 1 || st.TuplesProxied != 10 {
			t.Errorf("after the drain: %d blocks / %d tuples proxied, want 1 / 10", st.BlocksProxied, st.TuplesProxied)
		}
		b.stop(t)
	})
}

// TestJanitorHonoursSessionTTL is the regression test for the fixed
// one-minute sweep: wsblockd expired idle sessions on time.Tick(time.Minute)
// whatever -session-ttl said, so a sub-second TTL pinned sessions and
// their admission slots for up to a minute. The chassis sweeps at TTL/4
// within [1 s, 1 min] for either tier, and the sweep stops with Run.
func TestJanitorHonoursSessionTTL(t *testing.T) {
	for ttl, want := range map[time.Duration]time.Duration{
		200 * time.Millisecond: time.Second,
		5 * time.Second:        1250 * time.Millisecond,
		5 * time.Minute:        time.Minute,
		time.Hour:              time.Minute,
	} {
		if got := janitorInterval(ttl); got != want {
			t.Errorf("janitorInterval(%s) = %s, want %s", ttl, got, want)
		}
	}

	f := testFlags(t, false, "-session-ttl=200ms", "-max-sessions=1")
	srv, err := service.New(service.Config{Catalog: testCatalog(t, 10), SessionTTL: f.SessionTTL, MaxSessions: f.MaxSessions})
	if err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	r := start(t, Daemon{Flags: f, Tier: srv, Registry: NewRegistry(), Logger: log.New(&logged, "", 0)})
	_, addr := r.announced(t, `listening on (\S+)$`)
	openSession(t, "http://"+addr)
	if resp, err := http.Post("http://"+addr+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`)); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second session under -max-sessions=1: %v, %v; want 503", resp, err)
	}
	deadline := time.Now().Add(4 * time.Second) // the first sweep is 1 s in; a minute at the parent
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session not expired 4 s after a 200 ms TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	openSession(t, "http://"+addr) // the expired session gave its admission slot back
	r.stop(t)
	if !strings.Contains(logged.String(), "expired 1 idle sessions") {
		t.Errorf("no expiry logged:\n%s", logged.String())
	}
	// The janitor stopped with Run: a session idle past its TTL now stays.
	time.Sleep(1200 * time.Millisecond)
	if srv.SessionCount() != 1 {
		t.Error("janitor still sweeping after Run returned")
	}
}
