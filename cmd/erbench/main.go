// Command erbench regenerates the tables and figures of "Benchmarking
// Filtering Techniques for Entity Resolution" (ICDE 2023) over the
// synthetic dataset analogs.
//
// Examples:
//
//	erbench -exp tableVI                      # dataset characteristics
//	erbench -exp tableVII -scale 0.05         # PC / PQ / RT of all methods
//	erbench -exp tableVII -datasets D2,D4     # restrict datasets
//	erbench -exp fig4 -datasets D2            # rank distributions
//	erbench -exp all -scale 0.02              # everything, small
//	erbench -exp tableVII -workers 1          # force the sequential path
//
// Tuning runs on a worker pool sized by -workers (default: all CPUs);
// results are reduced in canonical grid order, so the tables and figures
// are byte-identical at any worker count for the same -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"erfilter/internal/bench"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

func main() {
	var (
		exp      = flag.String("exp", "tableVII", "experiment: tableVI, fig3, tableVII, tableVIII, tableIX, tableX, tableXI, fig4, fig5, fig6, fig7, reduction, conclusions, ablation, serve, ann, lsm, repl, bulk, match, all")
		scale    = flag.Float64("scale", 0.05, "dataset scale relative to the paper's sizes (1.0 = full)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset, e.g. D2,D4 (default: all)")
		methods  = flag.String("methods", "", "comma-separated method subset, e.g. SBW,kNNJ (default: all)")
		full     = flag.Bool("full-grids", false, "use the paper's complete configuration grids (slow)")
		seed     = flag.Uint64("seed", 1, "random seed for stochastic methods")
		workers  = flag.Int("workers", 0, "worker-pool size for cells and grid searches (0 = NumCPU, 1 = sequential); results are identical at any count")
		reps     = flag.Int("reps", 0, "repetitions for stochastic methods (0 = default)")
		embedDim = flag.Int("embed-dim", 300, "embedding dimensionality (paper: 300)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		jsonOut  = flag.String("json", "", "also write the report as JSON to this file (report-based experiments only)")
		shards   = flag.Int("shards", 8, "max shard count for -exp serve (doubled from 1 up to this)")
		serveN   = flag.Int("serve-entities", 20000, "collection size for -exp serve")
		serveQ   = flag.Int("serve-queries", 5000, "query count for -exp serve")
		annN     = flag.Int("ann-entities", 100000, "largest collection size for -exp ann (quartered down to 1000)")
		annQ     = flag.Int("ann-queries", 200, "query count per size for -exp ann")
		annDim   = flag.Int("ann-dim", 64, "vector dimensionality for -exp ann")
		annEf    = flag.Int("ann-ef", 0, "HNSW query beam width for -exp ann (0 = default)")
		lsmN     = flag.Int("lsm-entities", 120000, "collection size for -exp lsm (must be >= 4x -lsm-cap)")
		lsmQ     = flag.Int("lsm-queries", 300, "query count for -exp lsm")
		lsmCap   = flag.Int("lsm-cap", 25000, "memtable cap for -exp lsm's disk resolver")
		lsmFanin = flag.Int("lsm-fanin", 6, "segment merge fan-in for -exp lsm")
		replN    = flag.Int("repl-entities", 20000, "collection size for -exp repl")
		replQ    = flag.Int("repl-queries", 3000, "query count per replica count for -exp repl")
		replMax  = flag.Int("repl-max", 4, "max replica count for -exp repl (doubled from 1 up to this)")
		bulkN    = flag.Int("bulk-entities", 100000, "collection size for -exp bulk")
		bulkRows = flag.Int("bulk-rows", 1000000, "NDJSON feed length for -exp bulk")
		matchN   = flag.Int("match-entities", 4000, "E1 collection size for -exp match (E2 is half, duplicates a quarter)")
		matchT   = flag.Float64("match-t", 0.85, "scorer decision threshold for -exp match")
		matchSh  = flag.Int("match-shards", 4, "shard count for -exp match's sharded-equivalence gate")
	)
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "erbench: -workers must be >= 0 (0 selects all CPUs), got %d\n", *workers)
		os.Exit(2)
	}
	opts := bench.Options{
		Scale:       *scale,
		FullGrids:   *full,
		Seed:        *seed,
		Workers:     *workers,
		Repetitions: *reps,
		EmbedDim:    *embedDim,
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if *methods != "" {
		opts.Methods = strings.Split(*methods, ",")
	}

	logw := io.Writer(os.Stderr)
	if *quiet {
		logw = io.Discard
	}
	out := os.Stdout

	var err error
	switch *exp {
	case "serve":
		err = serveExperiment(out, *shards, *serveN, *serveQ)
	case "ann":
		err = annExperiment(out, *annN, *annQ, *annDim, *annEf)
	case "lsm":
		err = lsmExperiment(out, *lsmN, *lsmQ, *lsmCap, *lsmFanin)
	case "repl":
		err = replExperiment(out, *replN, *replQ, *replMax)
	case "bulk":
		err = bulkExperiment(out, *bulkN, *bulkRows)
	case "match":
		err = matchExperiment(out, *matchN, *matchT, *matchSh)
	default:
		err = dispatch(*exp, opts, logw, out, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(1)
	}
}

func dispatch(exp string, opts bench.Options, logw, out io.Writer, jsonPath string) error {
	opts = opts.WithDefaults()
	needsReport := map[string]bool{
		"tableVII": true, "tableVIII": true, "tableIX": true, "tableX": true,
		"tableXI": true, "fig7": true, "fig8": true, "fig9": true,
		"reduction": true, "conclusions": true, "all": true,
	}

	var report *bench.Report
	if needsReport[exp] {
		var err error
		report, err = bench.Run(opts, logw)
		if err != nil {
			return err
		}
		if jsonPath != "" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := bench.WriteJSON(f, report); err != nil {
				return err
			}
		}
	}

	switch exp {
	case "tableVI":
		bench.TableVI(out, opts.Scale)
	case "fig3":
		bench.Fig3(out, opts.Scale)
	case "tableVII":
		bench.TableVII(out, report)
	case "tableVIII":
		bench.TableVIII(out, report)
	case "tableIX":
		bench.TableIX(out, report)
	case "tableX":
		bench.TableX(out, report)
	case "tableXI":
		bench.TableXI(out, report)
	case "fig4", "fig5", "fig6":
		return rankFigures(exp, opts, out)
	case "fig7", "fig8", "fig9":
		bench.Fig7(out, report)
	case "reduction":
		bench.Reduction(out, report)
	case "conclusions":
		bench.Conclusions(out, report)
	case "ablation":
		for _, spec := range datagen.Specs(opts.Scale) {
			if !datasetWanted(opts, spec.Name) {
				continue
			}
			bench.Ablation(out, datagen.Generate(spec))
		}
	case "all":
		bench.TableVI(out, opts.Scale)
		fmt.Fprintln(out)
		bench.Fig3(out, opts.Scale)
		fmt.Fprintln(out)
		bench.TableVII(out, report)
		bench.TableVIII(out, report)
		bench.TableIX(out, report)
		bench.TableX(out, report)
		fmt.Fprintln(out)
		bench.TableXI(out, report)
		fmt.Fprintln(out)
		bench.Fig7(out, report)
		bench.Reduction(out, report)
		fmt.Fprintln(out)
		bench.Conclusions(out, report)
		fmt.Fprintln(out)
		for _, fig := range []string{"fig4", "fig5", "fig6"} {
			fmt.Fprintf(out, "--- %s ---\n", fig)
			if err := rankFigures(fig, opts, out); err != nil {
				return err
			}
		}
		fmt.Fprintln(out, "--- ablation ---")
		for _, spec := range datagen.Specs(opts.Scale) {
			if !datasetWanted(opts, spec.Name) {
				continue
			}
			bench.Ablation(out, datagen.Generate(spec))
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// rankFigures prints the Figure 4/5/6 rank-distribution histograms:
// fig4 = schema-agnostic, index E1 / query E2; fig5 = schema-agnostic,
// reversed; fig6 = schema-based, both directions.
func rankFigures(exp string, opts bench.Options, out io.Writer) error {
	for _, spec := range datagen.Specs(opts.Scale) {
		if !datasetWanted(opts, spec.Name) {
			continue
		}
		task := datagen.Generate(spec)
		switch exp {
		case "fig4":
			bench.RankFigure(out, task, entity.SchemaAgnostic, false, opts.EmbedDim)
		case "fig5":
			bench.RankFigure(out, task, entity.SchemaAgnostic, true, opts.EmbedDim)
		case "fig6":
			if !datagen.SchemaBasedDatasets[spec.Name] {
				continue
			}
			bench.RankFigure(out, task, entity.SchemaBased, false, opts.EmbedDim)
			bench.RankFigure(out, task, entity.SchemaBased, true, opts.EmbedDim)
		}
	}
	return nil
}

func datasetWanted(opts bench.Options, name string) bool {
	if len(opts.Datasets) == 0 {
		return true
	}
	for _, d := range opts.Datasets {
		if d == name {
			return true
		}
	}
	return false
}
