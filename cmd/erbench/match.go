package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/match"
	"erfilter/internal/matching"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// matchExperiment measures what the match stage adds on top of the
// filter: it indexes a generated E1, decides every E2 entity against it
// and scores the decided pairs against the groundtruth. The filter-only
// row treats every candidate pair as a match — the quality a
// filtering-only deployment would report — and the greedy/bipartite
// rows show the decided one-to-one matchings. The run fails unless the
// N-shard resolver's decisions are byte-identical to the one-shard
// resolver's, which is the serving-layer equivalence contract.
func matchExperiment(out io.Writer, entities int, threshold float64, shards int) error {
	if entities < 20 {
		return fmt.Errorf("-match-entities must be >= 20, got %d", entities)
	}
	if threshold <= 0 || threshold > 1 {
		return fmt.Errorf("-match-t must be in (0, 1], got %g", threshold)
	}
	n2 := entities / 2
	dups := entities / 4
	task := datagen.Generate(datagen.QuickSpec(entities, n2, dups, 7))

	c3g, err := text.ParseModel("C3G")
	if err != nil {
		return err
	}
	// A permissive ε-join keeps recall in the candidate set; the scorer
	// threshold is what turns candidates into matches.
	cfg := online.Config{
		Method: online.EpsJoin, Model: c3g, Measure: sparse.Jaccard,
		Threshold: 0.15, Clean: true,
	}
	e1 := make([][]entity.Attribute, task.E1.Len())
	for i := range task.E1.Profiles {
		e1[i] = task.E1.Profiles[i].Attrs
	}
	queries := make([][]entity.Attribute, task.E2.Len())
	for i := range task.E2.Profiles {
		queries[i] = task.E2.Profiles[i].Attrs
	}

	res := memResolver(cfg, 1)
	res.InsertBatch(e1) // ids are assigned 0..n-1: id == E1 index
	snap := res.Snapshot()

	mcfg := match.Config{Scorer: match.ScoreJaroWinkler, Threshold: threshold}
	dec := match.NewDecider(mcfg, cfg)

	fmt.Fprintf(out, "match stage: E1=%d E2=%d dups=%d, filter=epsjoin eps=%.2f model=C3G jaccard, scorer=%s t=%.2f\n\n",
		task.E1.Len(), task.E2.Len(), task.Truth.Size(), cfg.Threshold, mcfg.Normalize().Scorer, threshold)
	fmt.Fprintf(out, "%14s  %10s  %12s  %9s  %7s  %7s  %7s  %9s\n",
		"mode", "pairs", "comparisons", "decided", "P", "R", "F1", "ms")

	row := func(mode string, pairs, comparisons int, decided []entity.Pair, elapsed time.Duration) {
		q := matching.EvaluateMatches(decided, task.Truth)
		fmt.Fprintf(out, "%14s  %10d  %12d  %9d  %7.3f  %7.3f  %7.3f  %9.0f\n",
			mode, pairs, comparisons, len(decided), q.Precision, q.Recall, q.F1,
			float64(elapsed.Nanoseconds())/1e6)
	}

	// Filter-only baseline: every candidate pair counts as a match.
	begin := time.Now()
	cands, _ := snap.QueryBatch(queries, online.QueryOptions{})
	var filtered []entity.Pair
	for q, cs := range cands {
		for _, c := range cs {
			filtered = append(filtered, entity.Pair{Left: int32(c.ID), Right: int32(q)})
		}
	}
	row("filter-only", len(filtered), 0, filtered, time.Since(begin))

	toPairs := func(ds []match.Decision) []entity.Pair {
		out := make([]entity.Pair, len(ds))
		for i, d := range ds {
			out[i] = entity.Pair{Left: int32(d.ID), Right: int32(d.Query)}
		}
		return out
	}
	results := map[match.Assign]match.Result{}
	for _, mode := range []match.Assign{match.AssignGreedy, match.AssignBipartite} {
		begin := time.Now()
		r := dec.DecideBatch(snap, queries, match.Request{}, mode)
		results[mode] = r
		row(mode.String(), r.Pairs, r.Comparisons, toPairs(r.Decisions), time.Since(begin))
	}

	// Equivalence gate: the N-shard scatter-gather path must decide the
	// identical matches. InsertBatch assigns the same contiguous id
	// block at every shard count, so both agree on id == E1 index.
	sr := memResolver(cfg, shards)
	sr.InsertBatch(e1)
	ssnap := sr.Snapshot()
	for _, mode := range []match.Assign{match.AssignGreedy, match.AssignBipartite} {
		sres := dec.DecideBatch(ssnap, queries, match.Request{}, mode)
		want, _ := json.Marshal(results[mode].Decisions)
		got, _ := json.Marshal(sres.Decisions)
		if !bytes.Equal(want, got) {
			return fmt.Errorf("%s decisions diverge between %d shards and 1 shard", mode, shards)
		}
	}
	fmt.Fprintf(out, "\nsharded equivalence: %d-shard decisions byte-identical to the one-shard resolver (greedy and bipartite)\n", shards)
	return nil
}
