package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/gateway"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"

	"context"
)

// buildGateBinaries builds the three binaries the chaos gate needs —
// the backend daemon, the gateway, and the load generator — with the
// race detector armed, so the kill exercises race-instrumented
// failover paths.
func buildGateBinaries(t *testing.T) (wsblockd, wsgate, wsload string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-race", "-o", dir+string(os.PathSeparator),
		"./cmd/wsblockd", "./cmd/wsgate", "./cmd/wsload")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build gate binaries: %v\n%s", err, out)
	}
	return filepath.Join(dir, "wsblockd"), filepath.Join(dir, "wsgate"), filepath.Join(dir, "wsload")
}

var (
	gateListenRE  = regexp.MustCompile(`wsgate listening on ([0-9.:\[\]]+)`)
	gateMetricsRE = regexp.MustCompile(`wsgate metrics on ([0-9.:\[\]]+)`)
)

// startGateway launches wsgate on ephemeral ports and waits until it
// announces both listeners on stdout, mirroring startDaemon.
func startGateway(t *testing.T, bin string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-quiet",
	}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start wsgate: %v", err)
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
				t.Fatalf("wsgate exited before announcing listeners; stdout so far: %v", d.stdoutLines)
			}
			d.stdoutLines = append(d.stdoutLines, line)
			if m := gateListenRE.FindStringSubmatch(line); m != nil {
				d.baseURL = "http://" + m[1]
			}
			if m := gateMetricsRE.FindStringSubmatch(line); m != nil {
				d.metricsURL = "http://" + m[1]
			}
		case <-deadline:
			t.Fatalf("timed out waiting for wsgate to announce listeners; stdout so far: %v", d.stdoutLines)
		}
	}
	go func() {
		for range lines {
		}
	}()
	return d
}

// gateStats fetches and decodes the gateway's /stats document.
func gateStats(t *testing.T, gate *daemon) gateway.Stats {
	t.Helper()
	code, body := httpGet(t, gate.baseURL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d: %s", code, body)
	}
	var st gateway.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode /stats: %v\n%s", err, body)
	}
	return st
}

// TestChaosGate is the headline robustness run for the gateway tier:
// three replicated wsblockd backends behind one wsgate, ambient wsload
// traffic through the gateway, and a SIGKILL of the measured session's
// primary mid-transfer. The client — which sees ONE endpoint and has
// announced transparent-failover capability — must finish with the
// exact relation, zero duplicate keys, no client-side failover, a
// bounded stall, and the gateway must account for the failover in its
// aggregate metrics while replication lag on the survivors drains back
// to zero.
func TestChaosGate(t *testing.T) {
	wsblockd, wsgate, wsload := buildGateBinaries(t)

	// Three replicated backends at a visible cost regime: conf1.1 at
	// timescale 0.2 stretches a 100-tuple block to ~0.1s of real time,
	// leaving a wide mid-flight window for the kill.
	backs := make([]*daemon, 3)
	urls := make([]string, len(backs))
	for i := range backs {
		backs[i] = startDaemon(t, wsblockd, "-conf", "conf1.1", "-timescale", "0.2",
			"-replicate", "8192")
		urls[i] = backs[i].baseURL
	}
	gate := startGateway(t, wsgate,
		"-backends", strings.Join(urls, ","),
		"-pull-interval", "5ms",
		"-breaker-failures", "2",
		"-breaker-cooldown", "1h")

	// Ambient load: wsload hammers the gateway for the whole run so the
	// kill lands under traffic, not against an idle tier.
	loadCmd := exec.Command(wsload,
		"-url", gate.baseURL, "-table", "customer",
		"-size", "300", "-streams", "2",
		"-duration", "15s", "-retries", "10")
	var loadOut bytes.Buffer
	loadCmd.Stdout, loadCmd.Stderr = &loadOut, &loadOut
	if err := loadCmd.Start(); err != nil {
		t.Fatalf("start wsload: %v", err)
	}
	loadDone := make(chan error, 1)
	go func() { loadDone <- loadCmd.Wait() }()
	t.Cleanup(func() {
		if loadCmd.ProcessState == nil {
			_ = loadCmd.Process.Kill()
			<-loadDone
		}
	})

	// The measured transfer runs in-process so every block's keys can be
	// audited for duplicates. The generous HTTP timeout means any stall
	// bound proven below is the gateway's doing, not the client's.
	hc := &http.Client{Timeout: 2 * time.Minute}
	c, err := client.New(gate.baseURL, wire.XML{}, hc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, client.Query{Table: "customer"})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Transparent() {
		t.Fatal("gateway session did not announce transparent failover capability")
	}
	var disturbances []string
	sess.OnDisturbance = func(reason string) { disturbances = append(disturbances, reason) }

	wantTuples := tpch.CustomerCount(scaleFactor)
	ids := make(map[int64]int, wantTuples)
	total := 0
	pull := func() time.Duration {
		t.Helper()
		start := time.Now()
		blk, err := sess.Next(ctx, 100)
		if err != nil {
			t.Fatalf("pull after %d tuples: %v", total, err)
		}
		for _, r := range blk.Rows() {
			ids[r[0].I]++
			total++
		}
		return time.Since(start)
	}

	// Serve a few blocks so the session is demonstrably mid-transfer,
	// then locate its primary through the gateway's own routing table.
	for i := 0; i < 3; i++ {
		pull()
	}
	var primary string
	for _, s := range gateStats(t, gate).Sessions {
		if s.ID == sess.ID() {
			primary = s.Backend
		}
	}
	if primary == "" {
		t.Fatalf("session %s not in gateway /stats", sess.ID())
	}
	var victim *daemon
	for _, d := range backs {
		if d.baseURL == primary {
			victim = d
		}
	}
	if victim == nil {
		t.Fatalf("primary %q is not one of the started backends %v", primary, urls)
	}

	// SIGKILL, no shutdown, no drain.
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	_ = victim.cmd.Wait()

	// Finish the transfer, timing every post-kill pull: the stall must
	// stay under one deadline-tracker timeout (the resilience default
	// maximum, 2 minutes) — in practice the gateway fails over within a
	// block's worth of time.
	const stallBound = 2 * time.Minute
	var worstStall time.Duration
	for !sess.Done() {
		if d := pull(); d > worstStall {
			worstStall = d
		}
	}
	if worstStall >= stallBound {
		t.Fatalf("worst post-kill pull stalled %v, want < %v", worstStall, stallBound)
	}
	t.Logf("worst post-kill pull: %v", worstStall)

	// Exactly-once across the kill: the full relation, every key once.
	if total != wantTuples {
		t.Fatalf("transfer across the kill delivered %d tuples, want %d", total, wantTuples)
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("key %d delivered %d times", id, n)
		}
	}

	// The failover was the gateway's, not the client's: zero client-side
	// session failovers, at least one gateway failover surfaced as a
	// disturbance through the capability handshake.
	if sess.Failovers() != 0 {
		t.Fatalf("client performed %d failovers of its own, want 0", sess.Failovers())
	}
	if sess.GatewayFailovers() < 1 {
		t.Fatal("session never acknowledged a gateway failover")
	}
	if len(disturbances) == 0 {
		t.Fatal("transparent failover never surfaced as a disturbance")
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Gateway accounting: the failover counter moved, no session create
	// was shed (the client never had to retry a create), and the dead
	// backend is marked unhealthy while replication lag on the survivors
	// drains back under the gate threshold.
	st := gateStats(t, gate)
	if st.Failovers < 1 {
		t.Fatalf("gateway stats report %d failovers, want >= 1", st.Failovers)
	}
	if st.SessionsShed != 0 {
		t.Fatalf("gateway shed %d session creates mid-chaos, want 0", st.SessionsShed)
	}
	_, body := httpGet(t, gate.metricsURL+"/metrics")
	series := parseMetrics(body)
	if got := series["wsopt_gateway_failovers_total"]; got < 1 {
		t.Errorf("wsopt_gateway_failovers_total = %g, want >= 1", got)
	}
	if got := series[fmt.Sprintf("wsopt_gateway_backend_healthy{backend=%q}", victim.baseURL)]; got != 0 {
		t.Errorf("dead backend health gauge = %g, want 0", got)
	}

	// Replication-lag threshold gate: once the ambient load finishes,
	// every surviving backend's lag must drain to zero records.
	select {
	case err := <-loadDone:
		if err != nil {
			t.Fatalf("wsload failed under chaos: %v\n%s", err, loadOut.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("wsload did not finish within 60s\n%s", loadOut.String())
	}
	if !strings.Contains(loadOut.String(), "total:") {
		t.Fatalf("wsload reported no total:\n%s", loadOut.String())
	}
	lagDrained := func() bool {
		_, body := httpGet(t, gate.metricsURL+"/metrics")
		series := parseMetrics(body)
		for _, d := range backs {
			if d == victim {
				continue
			}
			if series[fmt.Sprintf("wsopt_gateway_replication_lag_records{backend=%q}", d.baseURL)] != 0 {
				return false
			}
		}
		return true
	}
	drainBy := time.Now().Add(15 * time.Second)
	for !lagDrained() {
		if time.Now().After(drainBy) {
			_, body := httpGet(t, gate.metricsURL+"/metrics")
			t.Fatalf("replication lag on surviving backends never drained to 0:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, d := range backs {
		if d != victim {
			d.stop(t)
		}
	}
}
