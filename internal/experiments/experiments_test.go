package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// fastOpts keeps experiment smoke tests quick while exercising the full
// pipeline.
func fastOpts() Options {
	return Options{Reps: 3, Seed: 1, SweepPoints: 9, TrajectorySteps: 15}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered, plus
	// the ablations from DESIGN.md and the sweeps behind the extensions'
	// claims.
	want := []string{
		"fig1", "fig2a", "fig2b", "fig3",
		"fig4a", "fig4b", "fig4c", "fig5",
		"fig6a", "fig6b", "fig6c", "fig7a", "fig7b",
		"fig8", "fig9",
		"table1", "table2", "table3",
		"ablation-averaging", "ablation-dither", "ablation-criterion",
		"ablation-reset", "ablation-samples", "ablation-mimd",
		"live-validation", "extension-selftuning", "ablation-metric",
		"vector-sweep", "slo-sweep", "push-vs-pull",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
		if Title(id) == "" {
			t.Errorf("%s has no title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(ids), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", fastOpts()); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestEveryExperimentProducesAReport(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	opts := fastOpts()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Errorf("report id %q != %q", rep.ID, id)
			}
			if len(rep.Columns) < 2 {
				t.Errorf("%s: report has no columns", id)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s: report has no rows", id)
			}
			for ri, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("%s: row %d has %d cells, want %d", id, ri, len(row), len(rep.Columns))
				}
			}
			if s := rep.String(); !strings.Contains(s, id) {
				t.Errorf("%s: rendering lacks the id", id)
			}
		})
	}
}

// parse reads a numeric cell, stripping the % suffix.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "%")
	cell = strings.TrimSuffix(cell, "*")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFig1OptimaNotes(t *testing.T) {
	rep, err := Run("fig1", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Five series plus the block column.
	if len(rep.Columns) != 6 {
		t.Fatalf("fig1 columns = %v", rep.Columns)
	}
	joined := strings.Join(rep.Notes, "\n")
	if !strings.Contains(joined, "optimum") {
		t.Fatal("fig1 must report per-series optima")
	}
}

func TestTable1Shape(t *testing.T) {
	opts := fastOpts()
	opts.SweepPoints = 11
	rep, err := Run("table1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("table1 rows = %d, want 3 configurations", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		static := parse(t, row[1])
		hybrid := parse(t, row[4])
		// The headline of Table I: the fixed 1000-tuple size is far worse
		// than the adaptive hybrid on every WAN configuration.
		if static <= hybrid {
			t.Errorf("%s: static-1000 (%.2f) should exceed hybrid (%.2f)", row[0], static, hybrid)
		}
		if static < 1.1 {
			t.Errorf("%s: static-1000 normalized %.2f implausibly good", row[0], static)
		}
	}
}

func TestTable3PaperOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	opts := Options{Reps: 6, Seed: 1, SweepPoints: 15}
	rep, err := Run("table3", opts)
	if err != nil {
		t.Fatal(err)
	}
	avg := rep.Rows[len(rep.Rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row should be the average, got %q", avg[0])
	}
	get := func(col string) float64 {
		for i, c := range rep.Columns {
			if c == col {
				return parse(t, avg[i])
			}
		}
		t.Fatalf("column %q missing", col)
		return 0
	}
	hybrid := get("hybrid")
	constant := get("const. gain")
	adaptive := get("adapt. gain")
	static1k := get("static 1K")
	// The paper's qualitative ordering (Table III): the hybrid beats the
	// constant and adaptive gains, and every adaptive technique crushes
	// the static ones.
	if hybrid > constant+2 { // small tolerance: they are close
		t.Errorf("hybrid (%.1f%%) should not lose to constant (%.1f%%)", hybrid, constant)
	}
	if adaptive < hybrid {
		t.Errorf("adaptive (%.1f%%) should be worse than hybrid (%.1f%%)", adaptive, hybrid)
	}
	if static1k < hybrid {
		t.Errorf("static 1K (%.1f%%) should be worse than hybrid (%.1f%%)", static1k, hybrid)
	}
}

func TestFig4TrajectoriesStartAtInitialSize(t *testing.T) {
	rep, err := Run("fig4a", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Rows[0]
	for i := 1; i < len(first); i++ {
		if first[i] != "1000" {
			t.Fatalf("trajectory %s starts at %s, want the conservative 1000", rep.Columns[i], first[i])
		}
	}
}

func TestFig8TracksSwitches(t *testing.T) {
	opts := fastOpts()
	opts.TrajectorySteps = 0 // keep the 420-step default: switching needs it
	opts.Reps = 2
	rep, err := Run("fig8", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 40 {
		t.Fatalf("fig8 rows = %d, want the 420-step horizon sampled every 10", len(rep.Rows))
	}
}

func TestTable2ReportsBothModels(t *testing.T) {
	opts := fastOpts()
	rep, err := Run("table2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("table2 rows = %d, want 4 configurations", len(rep.Rows))
	}
	if len(rep.Columns) != 5 {
		t.Fatalf("table2 columns = %v", rep.Columns)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Reps != 10 || o.Seed != 1 || o.SweepPoints != 21 {
		t.Fatalf("defaults = %+v", o)
	}
	if got := (Options{TrajectorySteps: 7}).steps(30); got != 7 {
		t.Fatalf("steps override = %d", got)
	}
	if got := (Options{}).steps(30); got != 30 {
		t.Fatalf("steps default = %d", got)
	}
}

func TestSeriesTablePadding(t *testing.T) {
	cols, rows := seriesTable("step", []string{"a", "b"}, [][]float64{{1, 2, 3}, {5}}, 1)
	if len(cols) != 3 {
		t.Fatalf("cols = %v", cols)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2][2] != "" {
		t.Fatalf("short series should pad with blanks, got %q", rows[2][2])
	}
	if rows[0][1] != "1" || rows[0][2] != "5" {
		t.Fatalf("first row = %v", rows[0])
	}
}

func TestReportRendering(t *testing.T) {
	rep := Report{
		ID: "x", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"hello"},
	}
	s := rep.String()
	for _, want := range []string{"demo", "a", "1", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}
