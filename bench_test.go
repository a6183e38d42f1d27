// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its rows/series through the experiment
// registry), the ablation benches called out in DESIGN.md, and
// micro-benchmarks of the performance-critical substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Set WSOPT_BENCH_PRINT=1 to also log each regenerated table/series.
// Headline numbers are attached as custom benchmark metrics (e.g.
// hybrid-degradation-pct for Table III).
package wsopt_test

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/experiments"
	"wsopt/internal/minidb"
	"wsopt/internal/profile"
	"wsopt/internal/sim"
	"wsopt/internal/stats"
	"wsopt/internal/sysid"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// benchOpts keeps experiment regeneration affordable inside a benchmark
// iteration while preserving every qualitative shape.
func benchOpts() experiments.Options {
	return experiments.Options{Reps: 3, Seed: 1, SweepPoints: 9}
}

// metricFunc extracts a headline number from a regenerated report.
type metricFunc func(experiments.Report) (name string, value float64)

func benchExperiment(b *testing.B, id string, metric metricFunc) {
	b.Helper()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	if metric != nil {
		name, v := metric(rep)
		b.ReportMetric(v, name)
	}
	if os.Getenv("WSOPT_BENCH_PRINT") != "" {
		b.Logf("\n%s", rep)
	}
}

// cell parses a numeric report cell ("1.23", "45.6%", "9818*").
func cell(rep experiments.Report, row, col int) float64 {
	s := strings.TrimSpace(rep.Rows[row][col])
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "*")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// colIndex finds a column by header name (-1 if absent).
func colIndex(rep experiments.Report, name string) int {
	for i, c := range rep.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// --- One benchmark per table and figure (Section II–IV) ---

func BenchmarkFig1ConcurrentJobs(b *testing.B) {
	benchExperiment(b, "fig1", nil)
}

func BenchmarkFig2aConcurrentQueries(b *testing.B) {
	benchExperiment(b, "fig2a", nil)
}

func BenchmarkFig2bMemoryLoad(b *testing.B) {
	benchExperiment(b, "fig2b", nil)
}

func BenchmarkFig3WANProfiles(b *testing.B) {
	benchExperiment(b, "fig3", nil)
}

func BenchmarkFig4Trajectories(b *testing.B) {
	for _, id := range []string{"fig4a", "fig4b", "fig4c"} {
		id := id
		b.Run(id, func(b *testing.B) {
			benchExperiment(b, id, func(rep experiments.Report) (string, float64) {
				// Final hybrid decision: where the controller settles.
				last := rep.Rows[len(rep.Rows)-1]
				v, _ := strconv.ParseFloat(last[len(last)-1], 64)
				return "final-hybrid-size", v
			})
		})
	}
}

func BenchmarkFig5GainImpact(b *testing.B) {
	benchExperiment(b, "fig5", nil)
}

func BenchmarkTable1NormalizedResponse(b *testing.B) {
	benchExperiment(b, "table1", func(rep experiments.Report) (string, float64) {
		col := colIndex(rep, "hybrid")
		vals := make([]float64, 0, len(rep.Rows))
		for r := range rep.Rows {
			vals = append(vals, cell(rep, r, col))
		}
		return "hybrid-normalized-mean", stats.Mean(vals)
	})
}

func BenchmarkFig6aLANProfile(b *testing.B) {
	benchExperiment(b, "fig6a", nil)
}

func BenchmarkFig6bLANTrajectories(b *testing.B) {
	benchExperiment(b, "fig6b", nil)
}

func BenchmarkFig6cTransitionCriteria(b *testing.B) {
	benchExperiment(b, "fig6c", nil)
}

func BenchmarkFig7aOrdersProfile(b *testing.B) {
	benchExperiment(b, "fig7a", nil)
}

func BenchmarkFig7bOrdersTrajectories(b *testing.B) {
	benchExperiment(b, "fig7b", nil)
}

func BenchmarkFig8ProfileSwitching(b *testing.B) {
	benchExperiment(b, "fig8", nil)
}

func BenchmarkTable2ModelBased(b *testing.B) {
	benchExperiment(b, "table2", func(rep experiments.Report) (string, float64) {
		// conf2.2 parabolic decision — the paper's flagship model result.
		return "conf22-parabolic-size", cell(rep, len(rep.Rows)-1, 3)
	})
}

func BenchmarkFig9ModelPlusController(b *testing.B) {
	benchExperiment(b, "fig9", nil)
}

func BenchmarkTable3Degradation(b *testing.B) {
	benchExperiment(b, "table3", func(rep experiments.Report) (string, float64) {
		return "hybrid-degradation-pct", cell(rep, len(rep.Rows)-1, colIndex(rep, "hybrid"))
	})
}

// --- Ablation benches (design choices from DESIGN.md §6) ---

func BenchmarkAblationAveraging(b *testing.B) {
	benchExperiment(b, "ablation-averaging", nil)
}

func BenchmarkAblationDither(b *testing.B) {
	benchExperiment(b, "ablation-dither", nil)
}

func BenchmarkAblationCriterion(b *testing.B) {
	benchExperiment(b, "ablation-criterion", nil)
}

func BenchmarkAblationResetPeriod(b *testing.B) {
	benchExperiment(b, "ablation-reset", nil)
}

func BenchmarkAblationSampleCount(b *testing.B) {
	benchExperiment(b, "ablation-samples", nil)
}

func BenchmarkAblationMIMD(b *testing.B) {
	benchExperiment(b, "ablation-mimd", nil)
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkControllerObserve measures the per-measurement cost of the
// hybrid control law: it must be negligible next to any network call.
func BenchmarkControllerObserve(b *testing.B) {
	cfg := core.DefaultConfig()
	ctl, err := core.NewHybrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Observe(3 + rng.Float64())
	}
}

// BenchmarkLeastSquaresFit measures one 6-sample identification fit.
func BenchmarkLeastSquaresFit(b *testing.B) {
	xs := []float64{100, 4080, 8060, 12040, 16020, 20000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 225/x + 4e-6*x + 0.12
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sysid.FitParabolic(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedQuery measures a full simulated conf2.2 transfer with
// the hybrid controller (the workhorse of every experiment).
func BenchmarkSimulatedQuery(b *testing.B) {
	spec := profile.Conf22()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Limits = spec.Limits
		cfg.B1 = spec.B1
		cfg.Seed = int64(i)
		ctl, err := core.NewHybrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunTuples(spec.New(int64(i)), ctl, spec.Tuples, sim.Options{})
	}
}

// benchBlock builds a realistic 1000-tuple Customer block once.
func benchBlock(b *testing.B) (minidb.Schema, []minidb.Row) {
	b.Helper()
	cat := minidb.NewCatalog()
	if _, err := tpch.GenCustomer(cat, 0.01); err != nil {
		b.Fatal(err)
	}
	it, err := cat.Execute(minidb.Query{Table: "customer"})
	if err != nil {
		b.Fatal(err)
	}
	rows, _, err := minidb.NextBlockAppend(it, 1000, nil)
	if err != nil {
		b.Fatal(err)
	}
	return it.Schema(), rows
}

// BenchmarkWireCodecs quantifies the XML/SOAP overhead the paper blames
// for web services being "notoriously slow", against the binary baseline.
func BenchmarkWireCodecs(b *testing.B) {
	schema, rows := benchBlock(b)
	for _, codec := range []wire.Codec{wire.XML{}, wire.Binary{}, wire.Gzip(wire.XML{}), wire.Gzip(wire.Binary{})} {
		codec := codec
		b.Run("encode-"+codec.Name(), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := codec.Encode(&buf, schema, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
		b.Run("decode-"+codec.Name(), func(b *testing.B) {
			var buf bytes.Buffer
			if err := codec.Encode(&buf, schema, rows); err != nil {
				b.Fatal(err)
			}
			payload := buf.Bytes()
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := codec.Decode(bytes.NewReader(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinidbScan measures raw iterator throughput of the embedded
// engine.
func BenchmarkMinidbScan(b *testing.B) {
	cat := minidb.NewCatalog()
	if _, err := tpch.GenCustomer(cat, 0.1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := cat.Execute(minidb.Query{Table: "customer", Columns: []string{"c_custkey", "c_acctbal"}})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			rows, done, err := minidb.NextBlockAppend(it, 5000, nil)
			if err != nil {
				b.Fatal(err)
			}
			n += len(rows)
			if done {
				break
			}
		}
		if n != tpch.CustomerCount(0.1) {
			b.Fatalf("scanned %d rows", n)
		}
	}
}

// BenchmarkTPCHGeneration measures data generation throughput.
func BenchmarkTPCHGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cat := minidb.NewCatalog()
		if _, err := tpch.GenCustomer(cat, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}
