package bench

import (
	"fmt"
	"io"
	"time"

	"erfilter/internal/blocking"
	"erfilter/internal/cleaning"
	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/metablocking"
	"erfilter/internal/metrics"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
)

// Ablation prints the design-choice studies called out in DESIGN.md: the
// contribution of every blocking-workflow step, the weighting-scheme and
// pruning-algorithm axes of Meta-blocking, set vs multiset token models,
// the effect of cleaning, and the excluded Sorted Neighborhood baseline.
func Ablation(w io.Writer, task *entity.Task) {
	in := core.NewInput(task, entity.SchemaAgnostic)
	truth := task.Truth
	fmt.Fprintf(w, "Ablation studies on %s (|E1|=%d |E2|=%d dup=%d)\n\n",
		task.Name, task.E1.Len(), task.E2.Len(), truth.Size())

	// 1. Blocking workflow steps: raw blocks -> +purging -> +filtering ->
	// +meta-blocking.
	{
		t := newTable("pipeline", "PC", "PQ", "|C|")
		raw := blocking.Build(in.V1, in.V2, blocking.Standard{})
		steps := []struct {
			name   string
			blocks *blocking.Collection
		}{
			{"standard blocking only", raw},
			{"+ block purging", cleaning.Purge(raw)},
			{"+ block filtering r=0.5", cleaning.Filter(cleaning.Purge(raw), 0.5)},
		}
		for _, s := range steps {
			m := core.Evaluate(metablocking.Propagate(s.blocks), truth)
			t.add(s.name, fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		g := metablocking.BuildGraph(steps[2].blocks)
		pruned := metablocking.Prune(g, metablocking.ARCS, metablocking.RCNP, steps[2].blocks.TotalPlacements())
		m := core.Evaluate(pruned, truth)
		t.add("+ meta-blocking (ARCS+RCNP)", fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		fmt.Fprintln(w, "1. Contribution of each blocking-workflow step:")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 2. Block Purging smooth factor.
	{
		t := newTable("smooth factor", "PC", "PQ", "|C|", "blocks kept")
		raw := blocking.Build(in.V1, in.V2, blocking.Standard{})
		for _, sf := range []float64{1.005, 1.025, 1.1, 1.5, 3.0} {
			purged := cleaning.PurgeSmooth(raw, sf)
			m := core.Evaluate(metablocking.Propagate(purged), truth)
			t.add(fmt.Sprintf("%.3f", sf), fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ),
				fmtCount(m.Candidates), fmt.Sprintf("%d/%d", len(purged.Blocks), len(raw.Blocks)))
		}
		fmt.Fprintln(w, "2. Block Purging smooth factor (default 1.025):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 3. Block Filtering ratio sweep.
	{
		t := newTable("ratio r", "PC", "PQ", "|C|")
		base := cleaning.Purge(blocking.Build(in.V1, in.V2, blocking.Standard{}))
		for _, r := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
			m := core.Evaluate(metablocking.Propagate(cleaning.Filter(base, r)), truth)
			t.add(fmt.Sprintf("%.1f", r), fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		fmt.Fprintln(w, "3. Block Filtering ratio (precision/recall trade-off):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 4. Weighting schemes at fixed pruning (RCNP).
	{
		t := newTable("scheme", "PC", "PQ", "|C|")
		blocks := cleaning.Purge(blocking.Build(in.V1, in.V2, blocking.Standard{}))
		g := metablocking.BuildGraph(blocks)
		for _, s := range metablocking.Schemes() {
			m := core.Evaluate(metablocking.Prune(g, s, metablocking.RCNP, blocks.TotalPlacements()), truth)
			t.add(s.String(), fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		fmt.Fprintln(w, "4. Meta-blocking weighting schemes (pruning fixed to RCNP):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 5. Pruning algorithms at fixed scheme (ARCS).
	{
		t := newTable("algorithm", "PC", "PQ", "|C|")
		blocks := cleaning.Purge(blocking.Build(in.V1, in.V2, blocking.Standard{}))
		g := metablocking.BuildGraph(blocks)
		for _, a := range metablocking.Algorithms() {
			m := core.Evaluate(metablocking.Prune(g, metablocking.ARCS, a, blocks.TotalPlacements()), truth)
			t.add(a.String(), fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		fmt.Fprintln(w, "5. Meta-blocking pruning algorithms (weighting fixed to ARCS):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 6. Set vs multiset representation models for kNN-Join.
	{
		t := newTable("model", "PC", "PQ", "|C|")
		for _, name := range []string{"T1G", "T1GM", "C3G", "C3GM", "C5G", "C5GM"} {
			model, _ := text.ParseModel(name)
			f := &core.KNNJoinFilter{Clean: true, Model: model, Measure: sparse.Cosine, K: 2}
			out, err := f.Run(in)
			if err != nil {
				continue
			}
			m := core.Evaluate(out.Pairs, truth)
			t.add(name, fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		fmt.Fprintln(w, "6. kNN-Join representation models, set vs multiset (cosine, K=2):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 7. Cleaning (stop-words + stemming) on/off for kNN-Join.
	{
		t := newTable("cleaning", "PC", "PQ", "|C|", "RT")
		for _, clean := range []bool{false, true} {
			f := &core.KNNJoinFilter{Clean: clean, Model: text.Model{N: 3}, Measure: sparse.Cosine, K: 2}
			out, err := f.Run(in.Fresh())
			if err != nil {
				continue
			}
			m := core.Evaluate(out.Pairs, truth)
			t.add(fmtYesNo(clean), fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates), fmtRT(out.Timing.Total))
		}
		fmt.Fprintln(w, "7. Stop-word removal + stemming for kNN-Join (C3G cosine, K=2):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 8. Sorted Neighborhood vs the Standard Blocking workflow (why the
	// paper excludes it).
	{
		t := newTable("method", "PC", "PQ", "|C|")
		for _, ws := range []int{5, 10, 25} {
			sn := blocking.SortedNeighborhood{WindowSize: ws}
			m := core.Evaluate(sn.Candidates(in.V1, in.V2), truth)
			t.add(fmt.Sprintf("sorted neighborhood w=%d", ws),
				fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		out, err := core.NewPBW().Run(in)
		if err == nil {
			m := core.Evaluate(out.Pairs, truth)
			t.add("standard blocking workflow (PBW)", fmt.Sprintf("%.3f", m.PC), fmtPQ(m.PQ), fmtCount(m.Candidates))
		}
		fmt.Fprintln(w, "8. Sorted Neighborhood vs blocking workflow (the excluded method):")
		t.write(w)
		fmt.Fprintln(w)
	}

	// 9. FAISS index types (Flat vs IVF vs HNSW).
	ablationIndexes(w, in, truth)

	// 10. Holistic vs step-by-step tuning (the paper's Section II claim
	// that simultaneous fine-tuning of all workflow steps beats the prior
	// per-step optimization).
	{
		t := newTable("tuning strategy", "PC", "PQ", "|C|", "configs examined")
		space := tuning.BlockingSpaces(false)[0] // SBW
		for _, s := range []struct {
			name string
			r    *tuning.Result
		}{
			{"step-by-step", tuning.TuneBlockingStepwise(in, space, tuning.DefaultTarget)},
			{"holistic", tuning.TuneBlocking(in, space, tuning.DefaultTarget)},
		} {
			t.add(s.name, fmt.Sprintf("%.3f", s.r.Metrics.PC), fmtPQ(s.r.Metrics.PQ),
				fmtCount(s.r.Metrics.Candidates), fmt.Sprintf("%d", s.r.Evaluated))
		}
		fmt.Fprintln(w, "10. Holistic vs step-by-step configuration optimization (SBW):")
		t.write(w)
		fmt.Fprintln(w)
	}
}

// ablationIndexes compares the FAISS index types the paper experimented
// with — exhaustive Flat, cell-probing (IVF, our Partitioned BF) and the
// HNSW graph — reproducing the finding that the approximate variants do
// not outperform Flat under Problem 1 while Flat stays competitive in
// run-time at these scales. Per-query latencies go through the same
// log-bucketed histogram the serving daemon uses, so the reported
// p50/p95/p99 are comparable with a live /metrics scrape.
func ablationIndexes(w io.Writer, in *core.Input, truth *entity.GroundTruth) {
	v1, v2 := in.Embeddings(true)
	if len(v1) == 0 || len(v2) == 0 {
		return
	}
	const k = 3
	run := func(name string, build func() knn.Searcher) {
		start := time.Now()
		idx := build()
		buildTime := time.Since(start)
		var hist metrics.Histogram
		var pairs []entity.Pair
		for qi, q := range v2 {
			qStart := time.Now()
			res := idx.Search(q, k)
			hist.ObserveDuration(time.Since(qStart))
			for _, r := range res {
				pairs = append(pairs, core.PairOf(false, qi, r.ID))
			}
		}
		snap := hist.Snapshot()
		m := core.Evaluate(pairs, truth)
		fmt.Fprintf(w, "  %-22s PC=%.3f PQ=%s |C|=%s build=%s query=%s p50=%s p99=%s\n",
			name, m.PC, fmtPQ(m.PQ), fmtCount(m.Candidates), fmtRT(buildTime),
			fmtRT(time.Duration(snap.Sum)),
			fmtRT(time.Duration(snap.Quantile(0.50))), fmtRT(time.Duration(snap.Quantile(0.99))))
	}
	fmt.Fprintln(w, "9. FAISS index types at K=3 (why the paper keeps only Flat):")
	run("flat (exhaustive)", func() knn.Searcher { return knn.NewFlat(v1, knn.L2Squared) })
	run("ivf (cell probing)", func() knn.Searcher {
		return knn.NewPartitioned(v1, knn.PartitionedConfig{Metric: knn.L2Squared, Scoring: knn.BruteForce, Seed: 1})
	})
	run("hnsw (graph)", func() knn.Searcher {
		return knn.NewHNSW(v1, knn.L2Squared, knn.HNSWParams{Seed: 1})
	})
	fmt.Fprintln(w)
}

func fmtYesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
