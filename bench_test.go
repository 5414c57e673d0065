// Package erfilter's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section at a small scale, one
// testing.B benchmark per experiment. Run the full-size experiments with
// cmd/erbench instead:
//
//	go run ./cmd/erbench -exp all -scale 0.05
package erfilter

import (
	"io"
	"testing"

	"erfilter/internal/bench"
	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
)

// benchOptions keeps every experiment benchmark laptop-fast: one small
// dataset analog, reduced grids, compact embeddings.
func benchOptions(datasets ...string) bench.Options {
	if len(datasets) == 0 {
		datasets = []string{"D2"}
	}
	return bench.Options{
		Scale:       0.012,
		Datasets:    datasets,
		Seed:        1,
		Repetitions: 1,
		EmbedDim:    48,
		AEHidden:    16,
		AEEpochs:    2,
	}
}

// BenchmarkTableVI regenerates the dataset characteristics table.
func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TableVI(io.Discard, 0.012)
	}
}

// BenchmarkFig3 regenerates the coverage / vocabulary / character-length
// figure.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig3(io.Discard, 0.012)
	}
}

// BenchmarkTableVII regenerates the full PC/PQ/RT table (tuning included)
// on one dataset analog.
func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(benchOptions(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.TableVII(io.Discard, rep)
	}
}

// BenchmarkTableVIII regenerates the blocking-workflow configuration
// table: the five Table III grid searches.
func BenchmarkTableVIII(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"SBW", "QBW", "EQBW", "SABW", "ESABW"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.TableVIII(io.Discard, rep)
	}
}

// BenchmarkTableIX regenerates the sparse-NN configuration table: the
// Table IV grid searches.
func BenchmarkTableIX(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"eps-Join", "kNNJ"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.TableIX(io.Discard, rep)
	}
}

// BenchmarkTableX regenerates the dense-NN configuration table: the
// Table V grid searches.
func BenchmarkTableX(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"MH-LSH", "CP-LSH", "HP-LSH", "FAISS", "SCANN", "DeepBlocker"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.TableX(io.Discard, rep)
	}
}

// BenchmarkTableXI regenerates the candidate-set-size table.
func BenchmarkTableXI(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"SBW", "eps-Join", "kNNJ", "FAISS"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.TableXI(io.Discard, rep)
	}
}

// BenchmarkFig4 regenerates the schema-agnostic rank-distribution
// histograms (index E1, query E2).
func BenchmarkFig4(b *testing.B) {
	task := datagen.ByName("D2", 0.012)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RankFigure(io.Discard, task, entity.SchemaAgnostic, false, 48)
	}
}

// BenchmarkFig5 regenerates the reversed-direction rank distributions.
func BenchmarkFig5(b *testing.B) {
	task := datagen.ByName("D2", 0.012)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RankFigure(io.Discard, task, entity.SchemaAgnostic, true, 48)
	}
}

// BenchmarkFig6 regenerates the schema-based rank distributions (both
// directions).
func BenchmarkFig6(b *testing.B) {
	task := datagen.ByName("D2", 0.012)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RankFigure(io.Discard, task, entity.SchemaBased, false, 48)
		bench.RankFigure(io.Discard, task, entity.SchemaBased, true, 48)
	}
}

// BenchmarkFig7 regenerates the run-time breakdown report.
func BenchmarkFig7(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"SBW", "PBW", "eps-Join", "kNNJ", "FAISS", "DeepBlocker"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.Fig7(io.Discard, rep)
	}
}

// BenchmarkReduction regenerates the candidate-reduction summary
// (Conclusion 3).
func BenchmarkReduction(b *testing.B) {
	opts := benchOptions()
	opts.Methods = []string{"MH-LSH", "CP-LSH", "HP-LSH", "eps-Join", "kNNJ", "FAISS"}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bench.Reduction(io.Discard, rep)
	}
}

// --- Sequential vs parallel grid search on a D2 analog slice. The two
// benchmarks run the same kNN-Join tuning grid; the only difference is
// the worker count, so their ratio is the speedup of the parallel
// engine (results are identical by construction — see
// internal/tuning/parallel_test.go). Measured numbers are recorded in
// EXPERIMENTS.md. ---

func tuneBenchInput(b *testing.B) *core.Input {
	b.Helper()
	task := datagen.ByName("D2", 0.012)
	in := core.NewInputDim(task, entity.SchemaAgnostic, 48)
	in.Seed = 1
	// Warm the text caches so both variants measure the grid search, not
	// the one-time preprocessing.
	in.Texts(true)
	in.Texts(false)
	return in
}

func benchTuneKNNJoin(b *testing.B, workers int) {
	in := tuneBenchInput(b)
	space := tuning.DefaultSparseSpace(false)
	space.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := tuning.TuneKNNJoin(in, space, tuning.DefaultTarget); r.Evaluated == 0 {
			b.Fatal("nothing evaluated")
		}
	}
}

func BenchmarkTuneSequential(b *testing.B) { benchTuneKNNJoin(b, 1) }

// BenchmarkTuneParallel pins 4 workers rather than GOMAXPROCS so the pool
// code path is exercised even on single-core machines (where GOMAXPROCS
// would resolve to one worker).
func BenchmarkTuneParallel(b *testing.B) { benchTuneKNNJoin(b, 4) }

// --- Micro-benchmarks of the individual filtering methods (per-run cost
// at a fixed configuration, complementing the per-table experiments). ---

func benchInput(b *testing.B) *core.Input {
	b.Helper()
	task := datagen.Generate(datagen.QuickSpec(100, 300, 70, 7))
	in := core.NewInputDim(task, entity.SchemaAgnostic, 48)
	in.Seed = 1
	return in
}

func benchFilter(b *testing.B, f core.Filter) {
	in := benchInput(b)
	// Warm caches so the benchmark measures the filter itself.
	if _, err := f.Run(in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterSBW(b *testing.B)  { benchFilter(b, core.NewPBW()) }
func BenchmarkFilterKNNJ(b *testing.B) { benchFilter(b, core.NewDkNN(false)) }

func BenchmarkFilterEpsJoin(b *testing.B) {
	r := tuning.DefaultSparseSpace(false)
	benchFilter(b, &core.EpsJoinFilter{Clean: true, Model: r.Models[2], Measure: 0, Threshold: 0.4})
}

func BenchmarkFilterFlatKNN(b *testing.B) {
	benchFilter(b, &core.FlatKNNFilter{Clean: true, K: 5})
}

func BenchmarkFilterMinHash(b *testing.B) {
	benchFilter(b, &core.MinHashFilter{Bands: 32, Rows: 4, K: 3})
}

func BenchmarkFilterDeepBlocker(b *testing.B) {
	benchFilter(b, &core.DeepBlockerFilter{Clean: true, K: 5, Hidden: 16, Epochs: 2})
}

// BenchmarkBatchPass is one pass of the repository benchmark's
// batch_filter workload (perf/batch.go): its five filters — PBW, DBW, DkNN,
// a C3G cosine ε-Join and flat kNN — each over a fresh input of the D4
// analog at scale 0.4, so every run pays for its cleaning, tokenising and
// embedding. Run it at -cpu 1,2: the NN filters represent and probe on
// GOMAXPROCS workers, so the two-core line reads below the one-core line.
func BenchmarkBatchPass(b *testing.B) {
	task := datagen.ByName("D4", 0.4)
	in := core.NewInput(task, entity.SchemaAgnostic)
	c3g, err := text.ParseModel("C3G")
	if err != nil {
		b.Fatal(err)
	}
	filters := []core.Filter{
		core.NewPBW(),
		core.NewDBW(),
		core.NewDkNN(task.E2.Len() <= task.E1.Len()),
		&core.EpsJoinFilter{Model: c3g, Measure: sparse.Cosine, Threshold: 0.4},
		&core.FlatKNNFilter{K: 5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range filters {
			if _, err := f.Run(in.Fresh()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation studies.
func BenchmarkAblation(b *testing.B) {
	task := datagen.ByName("D2", 0.012)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Ablation(io.Discard, task)
	}
}
