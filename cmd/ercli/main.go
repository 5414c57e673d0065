// Command ercli runs entity-resolution filtering (and optional
// verification) on CSV inputs — the tool a practitioner points at two
// exported tables:
//
//	ercli -e1 shopA.csv -e2 shopB.csv -method knnj -k 3 > candidates.csv
//	ercli -e1 a.csv -e2 b.csv -method pbw -truth gt.csv        # evaluates
//	ercli -e1 a.csv -e2 b.csv -method knnj -tune -truth gt.csv # Problem 1
//	ercli -e1 a.csv -e2 b.csv -method epsjoin -t 0.4 -verify tfidf:0.5
//
// Each CSV has a header row of attribute names and one entity per row.
// The optional groundtruth CSV holds (E1 row index, E2 row index) pairs.
// Candidates are written to stdout as "e1_index,e2_index" rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/match"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
)

func main() {
	var (
		e1Path    = flag.String("e1", "", "CSV file of the first collection (required)")
		e2Path    = flag.String("e2", "", "CSV file of the second collection (required)")
		truthPath = flag.String("truth", "", "optional groundtruth CSV of (e1,e2) index pairs; enables evaluation")
		method    = flag.String("method", "knnj", "filter: pbw, dbw, sbw, knnj, dknn, epsjoin, faiss, deepblocker")
		schema    = flag.String("schema", "agnostic", "schema setting: agnostic or based")
		attribute = flag.String("attribute", "", "best attribute for -schema based (default: auto-select)")
		k         = flag.Int("k", 3, "cardinality threshold for knnj/faiss/deepblocker")
		threshold = flag.Float64("t", 0.4, "similarity threshold for epsjoin")
		model     = flag.String("model", "C3G", "representation model for sparse methods (T1G..C5GM)")
		clean     = flag.Bool("clean", true, "apply stop-word removal and stemming (sparse/dense methods)")
		tune      = flag.Bool("tune", false, "fine-tune the method under Problem 1 (requires -truth)")
		target    = flag.Float64("target", 0.9, "recall target for -tune")
		workers   = flag.Int("workers", 0, "worker-pool size for -tune grid searches (0 = GOMAXPROCS, 1 = one branch at a time); results are identical at any count")
		verify    = flag.String("verify", "", "verification, e.g. tfidf:0.5, jaro:0.8, jaccard:0.3")
		quiet     = flag.Bool("quiet", false, "suppress the evaluation summary on stderr")
	)
	flag.Parse()

	if *e1Path == "" || *e2Path == "" {
		fmt.Fprintln(os.Stderr, "ercli: -e1 and -e2 are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*e1Path, *e2Path, *truthPath, *method, *schema, *attribute,
		*k, *threshold, *model, *clean, *tune, *target, *workers, *verify, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "ercli:", err)
		os.Exit(1)
	}
}

func run(e1Path, e2Path, truthPath, method, schema, attribute string,
	k int, threshold float64, modelName string, clean, tune bool,
	target float64, workers int, verify string, quiet bool) error {

	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 selects all CPUs), got %d", workers)
	}
	task, err := loadTask(e1Path, e2Path, truthPath, attribute)
	if err != nil {
		return err
	}
	setting := entity.SchemaAgnostic
	if schema == "based" {
		setting = entity.SchemaBased
	}
	in := core.NewInput(task, setting)

	model, err := text.ParseModel(modelName)
	if err != nil {
		return err
	}

	var filter core.Filter
	if tune {
		if task.Truth.Size() == 0 {
			return fmt.Errorf("-tune requires -truth with at least one pair")
		}
		r, err := tuneMethod(method, in, target, workers)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "tuned %s: PC=%.3f PQ=%.3f config{%s}\n",
				r.Method, r.Metrics.PC, r.Metrics.PQ, r.ConfigString())
		}
		filter = r.Filter
	} else {
		filter, err = buildMethod(method, model, clean, k, threshold, task)
		if err != nil {
			return err
		}
	}

	out, err := filter.Run(in)
	if err != nil {
		return err
	}
	pairs := out.Pairs

	if verify != "" {
		m, err := parseVerifier(verify, in)
		if err != nil {
			return err
		}
		pairs = m.Verify(pairs, in.V1, in.V2)
	}

	if !quiet {
		if task.Truth.Size() > 0 {
			metrics := core.Evaluate(pairs, task.Truth)
			fmt.Fprintf(os.Stderr, "%s: PC=%.3f PQ=%.3f candidates=%d rt=%v\n",
				filter.Name(), metrics.PC, metrics.PQ, metrics.Candidates, out.Timing.Total)
		} else {
			fmt.Fprintf(os.Stderr, "%s: candidates=%d rt=%v\n", filter.Name(), len(pairs), out.Timing.Total)
		}
	}
	for _, p := range pairs {
		fmt.Printf("%d,%d\n", p.Left, p.Right)
	}
	return nil
}

func loadTask(e1Path, e2Path, truthPath, attribute string) (*entity.Task, error) {
	read := func(path, name string) (*entity.Dataset, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return entity.ReadCSV(name, f)
	}
	e1, err := read(e1Path, "E1")
	if err != nil {
		return nil, err
	}
	e2, err := read(e2Path, "E2")
	if err != nil {
		return nil, err
	}
	task := &entity.Task{Name: "cli", E1: e1, E2: e2, Truth: entity.NewGroundTruth(nil)}
	if truthPath != "" {
		f, err := os.Open(truthPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		truth, err := entity.ReadGroundTruthCSV(f, e1.Len(), e2.Len())
		if err != nil {
			return nil, err
		}
		task.Truth = truth
	}
	if attribute != "" {
		task.BestAttribute = attribute
	} else {
		task.BestAttribute = entity.BestAttribute(task)
	}
	return task, nil
}

func buildMethod(method string, model text.Model, clean bool, k int, threshold float64, task *entity.Task) (core.Filter, error) {
	smallerIsE2 := task.E2.Len() <= task.E1.Len()
	switch strings.ToLower(method) {
	case "pbw":
		return core.NewPBW(), nil
	case "dbw":
		return core.NewDBW(), nil
	case "sbw":
		w := core.NewPBW()
		w.Label = "SBW"
		return w, nil
	case "knnj":
		return &core.KNNJoinFilter{Clean: clean, Model: model, Measure: sparse.Cosine, K: k, Reverse: !smallerIsE2}, nil
	case "dknn":
		return core.NewDkNN(smallerIsE2), nil
	case "epsjoin":
		return &core.EpsJoinFilter{Clean: clean, Model: model, Measure: sparse.Cosine, Threshold: threshold}, nil
	case "faiss":
		return &core.FlatKNNFilter{Clean: clean, K: k, Reverse: !smallerIsE2}, nil
	case "deepblocker":
		return &core.DeepBlockerFilter{Clean: clean, K: k, Reverse: !smallerIsE2}, nil
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func tuneMethod(method string, in *core.Input, target float64, workers int) (*tuning.Result, error) {
	switch strings.ToLower(method) {
	case "sbw", "pbw":
		space := tuning.BlockingSpaces(false)[0]
		space.Workers = workers
		return tuning.TuneBlocking(in, space, target), nil
	case "knnj", "dknn":
		space := tuning.DefaultSparseSpace(false)
		space.Workers = workers
		return tuning.TuneKNNJoin(in, space, target), nil
	case "epsjoin":
		space := tuning.DefaultSparseSpace(false)
		space.Workers = workers
		return tuning.TuneEpsJoin(in, space, target), nil
	case "faiss":
		space := tuning.DefaultDenseSpace(false)
		space.Workers = workers
		return tuning.TuneFlatKNN(in, space, target)
	}
	return nil, fmt.Errorf("method %q does not support -tune", method)
}

func parseVerifier(spec string, in *core.Input) (*match.Matcher, error) {
	name, thr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("verify spec %q must be name:threshold", spec)
	}
	t, err := strconv.ParseFloat(thr, 64)
	if err != nil {
		return nil, fmt.Errorf("verify threshold %q: %w", thr, err)
	}
	s, err := match.ParseScorer(name)
	if err != nil {
		return nil, err
	}
	return match.NewMatcher(s, t, in.V1, in.V2), nil
}
