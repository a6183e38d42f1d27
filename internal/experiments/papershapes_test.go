package experiments

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"wsopt/internal/stats"
)

// Regression tests pinning the qualitative shapes of the paper's figures:
// if a refactor or recalibration breaks one of the published findings,
// these fail. They run the experiments at reduced replication, which is
// enough for the (coarse) shape assertions.

func shapeOpts() Options {
	return Options{Reps: 4, Seed: 1, SweepPoints: 11}
}

// series extracts a numeric column from a report, skipping blanks.
func series(t *testing.T, rep Report, col int) []float64 {
	t.Helper()
	var out []float64
	for _, row := range rep.Rows {
		if row[col] == "" {
			continue
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", row[col], err)
		}
		out = append(out, v)
	}
	return out
}

func tail(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}

func TestShapeFig6bAdaptiveOvershoots(t *testing.T) {
	rep, err := Run("fig6b", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: step, constant b1=800, constant b1=1200, adaptive.
	adaptive := tail(series(t, rep, 3), 10)
	constant := tail(series(t, rep, 1), 10)
	if stats.Mean(adaptive) < 5500 {
		t.Errorf("adaptive gain should ride the 7000 limit on conf2.1, mean tail = %.0f", stats.Mean(adaptive))
	}
	if stats.Mean(constant) > 4000 {
		t.Errorf("constant b1=800 should oscillate near the ~2K optimum, mean tail = %.0f", stats.Mean(constant))
	}
}

func TestShapeFig7bRoles(t *testing.T) {
	rep, err := Run("fig7b", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: step, constant, adaptive, hybrid.
	adaptive := tail(series(t, rep, 2), 15)
	hybrid := tail(series(t, rep, 3), 15)
	if stats.Mean(adaptive) < 14000 {
		t.Errorf("adaptive should fail to track on conf2.2 (ride toward 20K), mean tail = %.0f", stats.Mean(adaptive))
	}
	if m := stats.Mean(hybrid); m < 3000 || m > 12000 {
		t.Errorf("hybrid should park in the optimum region, mean tail = %.0f", m)
	}
	// Stability: the hybrid's late-phase decisions move less than the
	// constant controller's saw-tooth.
	constant := tail(series(t, rep, 1), 15)
	if wobble(hybrid) >= wobble(constant) {
		t.Errorf("hybrid wobble %.0f should be below constant wobble %.0f", wobble(hybrid), wobble(constant))
	}
}

// wobble is the mean absolute step-to-step change.
func wobble(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sum := 0.0
	for i := 1; i < len(xs); i++ {
		sum += math.Abs(xs[i] - xs[i-1])
	}
	return sum / float64(len(xs)-1)
}

func TestShapeFig6cEq5BeatsEq6(t *testing.T) {
	rep, err := Run("fig6c", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The quantified comparison lives in the notes:
	// "normalized response time: Eq.(5) A vs Eq.(6) B (...)".
	var eq5, eq6 float64
	found := false
	for _, n := range rep.Notes {
		if _, err := fmtSscanfNote(n, &eq5, &eq6); err == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("fig6c note with the Eq.(5)/Eq.(6) comparison missing")
	}
	if eq5 >= eq6 {
		t.Errorf("Eq.(5) (%.3f) should beat Eq.(6) (%.3f), as in the paper", eq5, eq6)
	}
}

// fmtSscanfNote parses the fig6c comparison note.
func fmtSscanfNote(n string, eq5, eq6 *float64) (int, error) {
	return fmt.Sscanf(n, "normalized response time: Eq.(5) %f vs Eq.(6) %f", eq5, eq6)
}

func TestShapeFig8HybridSmoother(t *testing.T) {
	opts := shapeOpts()
	opts.Reps = 2
	rep, err := Run("fig8", opts)
	if err != nil {
		t.Fatal(err)
	}
	constant := series(t, rep, 1)
	hybrid := series(t, rep, 2)
	// Drop the shared start-up ramp.
	constant, hybrid = tail(constant, len(constant)-4), tail(hybrid, len(hybrid)-4)
	if wobble(hybrid) >= wobble(constant)*1.2 {
		t.Errorf("hybrid (wobble %.0f) should not be rougher than constant (%.0f) on the switching workload",
			wobble(hybrid), wobble(constant))
	}
}

func TestShapeTable2QuadraticConf11(t *testing.T) {
	rep, err := Run("table2", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// conf1.1 quadratic decision lands in the paper's region (~13250).
	dec := parse(t, rep.Rows[0][1])
	if dec < 11000 || dec > 16000 {
		t.Errorf("conf1.1 quadratic decision = %.0f, paper region ~13250", dec)
	}
	norm := parse(t, rep.Rows[0][2])
	if norm > 1.15 {
		t.Errorf("conf1.1 quadratic normalized time = %.3f, paper 1.025", norm)
	}
}

func TestShapeLiveMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins an HTTP server")
	}
	opts := shapeOpts()
	opts.Reps = 3
	rep, err := Run("live-validation", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want one per run", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		ratio := parse(t, row[3])
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("run %s: live/sim ratio %.3f outside [0.8, 1.2] — the simulator no longer matches the deployed stack", row[0], ratio)
		}
	}
}

// TestShapePushBeatsPullOnHighRTT is the push transport's acceptance
// gate: at the size that flatters pull (pull's own optimum) push must
// still be >= 1.5x faster, and push's optimum must sit at a strictly
// smaller size, because with the round-trip gone there is less for big
// blocks to amortize.
func TestShapePushBeatsPullOnHighRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("spins two HTTP servers")
	}
	rep, err := Run("push-vs-pull", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: paper-scale size, size, pull s, push s, pull/push.
	pullOpt, pushOpt := rep.Rows[0], rep.Rows[0]
	for _, row := range rep.Rows {
		if parse(t, row[2]) < parse(t, pullOpt[2]) {
			pullOpt = row
		}
		if parse(t, row[3]) < parse(t, pushOpt[3]) {
			pushOpt = row
		}
	}
	if speedup := parse(t, pullOpt[4]); speedup < 1.5 {
		t.Errorf("push is %.2fx pull at pull's optimum %s, want >= 1.5x", speedup, pullOpt[0])
	}
	if parse(t, pushOpt[0]) >= parse(t, pullOpt[0]) {
		t.Errorf("push optimum %s is not smaller than pull optimum %s", pushOpt[0], pullOpt[0])
	}
}

// TestShapeVectorSweepShowsWhereEachDriverEnded: every cell prints how
// far from the optimum it ended next to the round it was credited with
// convergence. The two disagree for the warm-started vector controller
// (converged in round 1, ends ~1.9x the optimum on latency-bound); the
// sweep's job is to keep that visible, so the ratio is logged here and
// not judged.
func TestShapeVectorSweepShowsWhereEachDriverEnded(t *testing.T) {
	rep, err := Run("vector-sweep", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d, want 3 scenarios x 4 drivers", len(rep.Rows))
	}
	if rep.Columns[4] != "converged@" || rep.Columns[7] != "final/opt" {
		t.Fatalf("columns = %v: converged@ and final/opt must both be printed", rep.Columns)
	}
	for _, row := range rep.Rows {
		ratio := parse(t, row[7])
		if ratio <= 0 {
			t.Errorf("%s/%s: final/opt = %q", row[0], row[1], row[7])
		}
		if row[1] == "vector-hybrid+warm-start" {
			t.Logf("%s: %s converged@ %s, ends at %.2fx the optimum", row[0], row[1], row[4], ratio)
		}
	}
}

func TestShapeFig1Concavity(t *testing.T) {
	rep, err := Run("fig1", shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// With 10 concurrent jobs the response at the largest block size must
	// exceed the series minimum by more than in the unloaded case —
	// "the more jobs, the more concave".
	unloaded := series(t, rep, 1)
	loaded := series(t, rep, 5)
	rise := func(xs []float64) float64 {
		min, _ := stats.Min(xs)
		return xs[len(xs)-1] / min
	}
	if rise(loaded) <= rise(unloaded) {
		t.Errorf("10-job profile should be more concave: rise %.2f vs %.2f", rise(loaded), rise(unloaded))
	}
}
