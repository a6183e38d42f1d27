package e2e

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/tpch"
)

// The first tests for any cmd/ package: build the real binaries, start a
// real daemon, run a real query over TCP, and scrape the real metrics.

const scaleFactor = 0.01 // 1500 customers: a full multi-block transfer in well under a second

// buildBinaries compiles wsblockd and wsquery into a temp dir once per
// test run.
func buildBinaries(t *testing.T) (wsblockd, wsquery string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/wsblockd", "./cmd/wsquery")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd binaries: %v\n%s", err, out)
	}
	return filepath.Join(dir, "wsblockd"), filepath.Join(dir, "wsquery")
}

// daemon is a running wsblockd under test.
type daemon struct {
	cmd         *exec.Cmd
	baseURL     string
	metricsURL  string
	stdoutLines []string
}

var (
	listenRE  = regexp.MustCompile(`wsblockd listening on ([0-9.:\[\]]+)`)
	metricsRE = regexp.MustCompile(`wsblockd metrics on ([0-9.:\[\]]+)`)
)

// startDaemon launches wsblockd on ephemeral ports and waits until it
// announces both listeners on stdout.
func startDaemon(t *testing.T, bin string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-sf", fmt.Sprintf("%g", scaleFactor),
		"-quiet",
	}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start wsblockd: %v", err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(60 * time.Second)
	for d.baseURL == "" || d.metricsURL == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("wsblockd exited before announcing listeners; stdout so far: %v", d.stdoutLines)
			}
			d.stdoutLines = append(d.stdoutLines, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				d.baseURL = "http://" + m[1]
			}
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				d.metricsURL = "http://" + m[1]
			}
		case <-deadline:
			t.Fatalf("timed out waiting for wsblockd to announce listeners; stdout so far: %v", d.stdoutLines)
		}
	}
	// Drain remaining stdout so the child never blocks on a full pipe.
	go func() {
		for range lines {
		}
	}()
	return d
}

// stop sends SIGTERM and asserts a clean (exit 0) shutdown.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal wsblockd: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wsblockd did not shut down cleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatal("wsblockd did not exit within 30s of SIGTERM")
	}
}

// httpGet fetches a URL with a deadline and returns status + body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// parseMetrics extracts every non-comment series line into name -> value.
func parseMetrics(body string) map[string]float64 {
	series := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series
}

var tuplesRE = regexp.MustCompile(`tuples:\s+(\d+) in (\d+) blocks`)

// runQuery executes wsquery and returns (tuples, blocks) parsed from its
// report.
func runQuery(t *testing.T, bin string, args ...string) (int, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("wsquery %v: %v\n%s", args, err, out)
	}
	m := tuplesRE.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("wsquery output has no tuple report:\n%s", out)
	}
	tuples, _ := strconv.Atoi(m[1])
	blocks, _ := strconv.Atoi(m[2])
	return tuples, blocks
}

// TestDaemonQueryMetricsEndToEnd is the headline e2e run: daemon up,
// adaptive query through it, events on disk, metrics scraped, pprof
// alive, clean shutdown.
func TestDaemonQueryMetricsEndToEnd(t *testing.T) {
	wsblockd, wsquery := buildBinaries(t)
	d := startDaemon(t, wsblockd)

	// Liveness on both planes before any traffic.
	if code, body := httpGet(t, d.baseURL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("service /healthz = %d %q", code, body)
	}
	if code, body := httpGet(t, d.metricsURL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("metrics /healthz = %d %q", code, body)
	}

	// A cold scrape must already expose the full schema.
	code, body := httpGet(t, d.metricsURL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	cold := parseMetrics(body)
	if len(cold) < 10 {
		t.Fatalf("cold /metrics exposes %d series, want >= 10:\n%s", len(cold), body)
	}
	for _, name := range []string{
		"wsopt_service_sessions_opened_total",
		"wsopt_service_blocks_served_total",
		"wsopt_service_tuples_served_total",
		"wsopt_service_blocks_replayed_total",
		`wsopt_service_faults_injected_total{kind="dropped"}`,
		"wsopt_go_goroutines",
	} {
		if _, ok := cold[name]; !ok {
			t.Errorf("cold /metrics missing series %s", name)
		}
	}

	// Full adaptive query with a structured event trace.
	wantTuples := tpch.CustomerCount(scaleFactor)
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")
	tuples, blocks := runQuery(t, wsquery,
		"-url", d.baseURL, "-table", "customer",
		"-controller", "hybrid", "-size", "200", "-limits", "50:2000",
		"-events", eventsPath)
	if tuples != wantTuples {
		t.Fatalf("query delivered %d tuples, want %d", tuples, wantTuples)
	}
	if blocks < 2 {
		t.Fatalf("query used %d blocks; the adaptive run should need several", blocks)
	}

	// Round-trip the JSONL trace: one event per block, seqs increasing,
	// tuple counts adding up.
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := client.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatalf("parse events: %v", err)
	}
	if len(events) != blocks {
		t.Fatalf("%d events for %d blocks", len(events), blocks)
	}
	evTuples, lastSeq := 0, uint64(0)
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing (last %d)", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Size <= 0 || ev.Decision <= 0 {
			t.Fatalf("event %d: degenerate size/decision: %+v", i, ev)
		}
		if ev.RTTMS < 0 || ev.Bytes <= 0 || ev.Tuples <= 0 {
			t.Fatalf("event %d: degenerate measurements: %+v", i, ev)
		}
		if ev.Controller != "hybrid" || ev.Phase == "" {
			t.Fatalf("event %d: missing controller/phase: %+v", i, ev)
		}
		if ev.Session == "" || ev.Endpoint != d.baseURL {
			t.Fatalf("event %d: not attributed to its session and endpoint: %+v", i, ev)
		}
		evTuples += ev.Tuples
	}
	if evTuples != wantTuples {
		t.Fatalf("events account for %d tuples, want %d", evTuples, wantTuples)
	}

	// The -trace path must emit the same structured trace.
	tracePath := filepath.Join(t.TempDir(), "trace-events.jsonl")
	tuples2, blocks2 := runQuery(t, wsquery,
		"-url", d.baseURL, "-table", "customer",
		"-controller", "static", "-size", "500",
		"-trace", "-events", tracePath)
	if tuples2 != wantTuples {
		t.Fatalf("traced query delivered %d tuples, want %d", tuples2, wantTuples)
	}
	f2, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traceEvents, err := client.ReadEvents(f2)
	f2.Close()
	if err != nil {
		t.Fatalf("parse traced events: %v", err)
	}
	if len(traceEvents) != blocks2 {
		t.Fatalf("%d traced events for %d blocks", len(traceEvents), blocks2)
	}
	for i, ev := range traceEvents {
		if ev.Session == "" || ev.Endpoint != d.baseURL {
			t.Fatalf("traced event %d: -trace dropped session/endpoint: %+v", i, ev)
		}
	}

	// The hot scrape reflects both transfers exactly.
	_, body = httpGet(t, d.metricsURL+"/metrics")
	hot := parseMetrics(body)
	if got := hot["wsopt_service_sessions_opened_total"]; got != 2 {
		t.Errorf("sessions_opened_total = %g, want 2", got)
	}
	if got := hot["wsopt_service_tuples_served_total"]; got != float64(2*wantTuples) {
		t.Errorf("tuples_served_total = %g, want %d", got, 2*wantTuples)
	}
	if got := hot["wsopt_service_blocks_served_total"]; got < float64(blocks+blocks2) {
		t.Errorf("blocks_served_total = %g, want >= %d", got, blocks+blocks2)
	}
	if got := hot["wsopt_service_block_size_tuples_count"]; got < float64(blocks+blocks2) {
		t.Errorf("block_size histogram count = %g, want >= %d", got, blocks+blocks2)
	}

	// A finished query's DELETE runs behind the run; wsquery waits for it
	// before it exits (client.Wait), so neither transport leaves a session
	// for the server to expire. (The gauge is sessions_live; ISSUE 25 calls
	// it sessions_active.)
	if got, ok := hot["wsopt_service_sessions_live"]; !ok || got != 0 {
		t.Errorf("sessions_live = %g (present=%v) after two pull queries exited, want 0", got, ok)
	}
	tuplesPush, _ := runQuery(t, wsquery,
		"-url", d.baseURL, "-table", "customer", "-controller", "static", "-size", "500", "-push")
	if tuplesPush != wantTuples {
		t.Fatalf("push query delivered %d tuples, want %d", tuplesPush, wantTuples)
	}
	_, body = httpGet(t, d.metricsURL+"/metrics")
	afterPush := parseMetrics(body)
	if live, opened, streams := afterPush["wsopt_service_sessions_live"], afterPush["wsopt_service_sessions_opened_total"], afterPush["wsopt_service_push_streams_opened_total"]; live != 0 || opened != 3 || streams != 1 {
		t.Errorf("after wsquery -push exited: sessions_live = %g, sessions_opened_total = %g, push_streams_opened_total = %g; want 0, 3, 1", live, opened, streams)
	}

	// A vector run — parallel streams, prefetch — is the same engine and
	// ends on the same finish path: its -events file must be flushed and
	// account for the whole relation, and -metrics-out must be written.
	vecPath := filepath.Join(t.TempDir(), "vector-events.jsonl")
	vecMetrics := filepath.Join(t.TempDir(), "vector-metrics.prom")
	tuples3, blocks3 := runQuery(t, wsquery,
		"-url", d.baseURL, "-table", "customer",
		"-streams", "3", "-pipeline-depth", "2", "-chunk-tuples", "400", "-size", "150",
		"-events", vecPath, "-metrics-out", vecMetrics)
	if tuples3 != wantTuples {
		t.Fatalf("vector query delivered %d tuples, want %d", tuples3, wantTuples)
	}
	f3, err := os.Open(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	vecEvents, err := client.ReadEvents(f3)
	f3.Close()
	if err != nil {
		t.Fatalf("parse vector events: %v", err)
	}
	if len(vecEvents) != blocks3 {
		t.Fatalf("%d vector events for %d blocks", len(vecEvents), blocks3)
	}
	vecTuples, vecSessions := 0, map[string]bool{}
	for _, ev := range vecEvents {
		vecTuples += ev.Tuples
		vecSessions[ev.Session] = true
	}
	if vecTuples != wantTuples || len(vecSessions) < 2 || vecSessions[""] {
		t.Fatalf("vector events account for %d tuples over sessions %v, want %d over several", vecTuples, vecSessions, wantTuples)
	}
	if prom, err := os.ReadFile(vecMetrics); err != nil || !strings.Contains(string(prom), "wsopt_client_") {
		t.Fatalf("vector run left no client metrics at exit: %v", err)
	}

	// pprof is mounted on the observability plane.
	if code, _ := httpGet(t, d.metricsURL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := httpGet(t, d.metricsURL+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index = %d", code)
	}

	d.stop(t)
}

// TestDaemonServesFaultsAndCountsThem runs the daemon with chaos flags
// and asserts the injected faults surface in /metrics while the query
// still completes exactly once.
func TestDaemonServesFaultsAndCountsThem(t *testing.T) {
	wsblockd, wsquery := buildBinaries(t)
	d := startDaemon(t, wsblockd, "-fault-503", "0.15", "-fault-seed", "42")

	wantTuples := tpch.CustomerCount(scaleFactor)
	tuples, _ := runQuery(t, wsquery,
		"-url", d.baseURL, "-table", "customer",
		"-controller", "constant", "-size", "100", "-limits", "50:500",
		"-retries", "25", "-retry-base", "1ms")
	if tuples != wantTuples {
		t.Fatalf("query under faults delivered %d tuples, want %d", tuples, wantTuples)
	}

	_, body := httpGet(t, d.metricsURL+"/metrics")
	series := parseMetrics(body)
	if got := series[`wsopt_service_faults_injected_total{kind="refused"}`]; got == 0 {
		t.Errorf("refused-fault counter is 0 despite -fault-503; the chaos layer is invisible to /metrics")
	}
	if got := series["wsopt_service_tuples_served_total"]; got != float64(wantTuples) {
		t.Errorf("tuples_served_total = %g, want %d", got, wantTuples)
	}

	d.stop(t)
}
