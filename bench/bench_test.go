package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// smokeConfig shrinks a run to test size: a tenth of the dataset, one
// epoch, a short trial, both phases.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0.2, trace: 2, sf: 0.02, epochs: 1, outDir: t.TempDir()}
}

// TestSmokeEveryWorkload runs all seven workloads end to end and traced,
// and holds the harness's own checkers to what the README promises.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.correct, res.failed, res.attempted)
			}
			for _, d := range endToEnd {
				if v := res.metrics[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive on every workload", d.name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			m := res.metrics
			// Over a few dozen blocks one handler descheduled between its
			// last write and its return (its span then outlasts the client's)
			// is most of the table; the bound is for runs of real length.
			if res.tracedBlocks >= 200 && m["trace.unattributed_frac"] >= 0.05 {
				t.Errorf("per-layer table misses client.next by %.3f over %d blocks", m["trace.unattributed_frac"], res.tracedBlocks)
			}
			// client.http is a difference (RoundTrip + body reads − handler
			// time) and may graze zero where the handler dominates; the
			// layers measured directly may not.
			if m["client.self_ms_per_block"] <= 0 || m["wire.decode_ms_per_block"] <= 0 || m["service.next_ms_per_block"] <= 0 {
				t.Errorf("a layer on every block path recorded no time: client.self=%v wire.decode=%v service.next=%v",
					m["client.self_ms_per_block"], m["wire.decode_ms_per_block"], m["service.next_ms_per_block"])
			}
			switch {
			case w.cacheBytes == 0:
				if m["blockcache.misses"] != 0 || m["blockcache.hit_ratio"] != 0 {
					t.Errorf("cacheless workload reports cache lookups: %v misses, hit ratio %v", m["blockcache.misses"], m["blockcache.hit_ratio"])
				}
				if m["wire.encode_ms_per_block"] <= 0 {
					t.Error("cacheless workload recorded no encode time")
				}
			case !w.ingest:
				if m["blockcache.hit_ratio"] < 0.99 {
					t.Errorf("hot workload hit ratio %v, want >= 0.99", m["blockcache.hit_ratio"])
				}
			}
			if w.gateway && (m["gateway.next_ms_per_block"] <= 0 || m["gateway.upstream_ms_per_block"] <= 0) {
				t.Errorf("gateway recorded no time: next=%v upstream=%v", m["gateway.next_ms_per_block"], m["gateway.upstream_ms_per_block"])
			}
			if w.push && m["service.credit_grants_per_block"] <= 0 {
				t.Error("push workload recorded no credit grants")
			}
			if w.ingest && (m["ingest_p50_ms"] <= 0 || m["service.ingest_ms_per_block"] <= 0) {
				t.Errorf("ingest recorded no time: p50=%v handler=%v", m["ingest_p50_ms"], m["service.ingest_ms_per_block"])
			}
			if w.ctl && m["ctl_cost_ratio"] < 0.9 {
				t.Errorf("controller cost ratio %v: achieved cost far below the oracle's optimum", m["ctl_cost_ratio"])
			}

			// The traced run wrote its spans.
			f, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := bytes.Cut(f, []byte("\n"))
			var span struct {
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}
			if err := json.Unmarshal(first, &span); err != nil || span.Name == "" || span.EndNS < span.StartNS {
				t.Errorf("first trace line %q: %v", first, err)
			}
		})
	}
}

// TestCostRatioRepeatsPerSeed pins the controller metric's determinism:
// same seed, same ratio to the last bit; another seed, another ratio.
func TestCostRatioRepeatsPerSeed(t *testing.T) {
	w := workloadByName("ctl-profiles")
	ratio := func(seed int64) float64 {
		cfg := smokeConfig(t)
		cfg.seed, cfg.trace = seed, 1
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.metrics["ctl_cost_ratio"]
	}
	a, b, c := ratio(1), ratio(1), ratio(2)
	if a != b {
		t.Errorf("seed 1 gave %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both gave %v", a)
	}
}

// TestResultLine runs the command as a driver would and checks the shape
// of the last line of its output.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size dataset")
	}
	var out bytes.Buffer
	if err := run([]string{"--workload", "hot-binary-small", "--seed", "3", "--seconds", "0.3", "--trace", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("--trace 0 printed %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}
}

func TestRefusesOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out bytes.Buffer
	err := run([]string{"--workload", "cold-binary"}, &out)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("run under GOMAXPROCS=1 returned %v, want an error that names GOMAXPROCS", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before refusing", out.String())
	}
}

// TestBenchmarkJSONMatchesProgram keeps ../BENCHMARK.json, which the
// driver reads, equal to the tables the program reports from.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	// The driver runs every workload but the ones kept for runs by hand.
	var driven []workload
	for _, w := range workloads {
		if !w.byHand {
			driven = append(driven, w)
		}
	}
	if len(spec.Workloads) != len(driven) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program not marked byHand", len(spec.Workloads), len(driven))
	}
	for i, w := range spec.Workloads {
		if w.Name != driven[i].name || w.Why != driven[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, driven[i].name, driven[i].why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.bound {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd, true)
	same("per-layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestYardstick checks that the reference ping-pong reads a speed and
// that the workload it scales says so in its notes.
func TestYardstick(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	if speed, err := y.run(yardstickSlice); err != nil || !(speed > 0) {
		t.Fatalf("yardstick read speed %v, error %v", speed, err)
	}

	cfg := smokeConfig(t)
	cfg.trace = 0
	res, err := runWorkload(context.Background(), workloadByName("hot-binary-small"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if notes := strings.Join(res.notes, "\n"); !strings.Contains(notes, "scaled to yardstick speed 1") {
		t.Errorf("scaled workload's notes do not say so:\n%s", notes)
	}
}
