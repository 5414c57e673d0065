package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/vector"
)

// Fig3 prints the best-attribute coverage (a) and the vocabulary size /
// character length of both schema settings, raw and cleaned (b, c).
func Fig3(w io.Writer, scale float64) {
	ta := newTable("dataset", "coverage", "groundtruth coverage", "distinctiveness")
	tb := newTable("dataset", "vocab agn", "vocab agn+cl", "vocab based", "vocab based+cl",
		"chars agn", "chars agn+cl", "chars based", "chars based+cl")
	for _, spec := range datagen.Specs(scale) {
		task := datagen.Generate(spec)
		stats := entity.StatsFor(task, task.BestAttribute)
		ta.add(spec.Name, fmt.Sprintf("%.2f", stats.Coverage),
			fmt.Sprintf("%.2f", stats.GroundtruthCoverage),
			fmt.Sprintf("%.2f", stats.Distinctiveness))

		row := []string{spec.Name}
		var vocabCols, charCols []string
		for _, setting := range []entity.SchemaSetting{entity.SchemaAgnostic, entity.SchemaBased} {
			v1, v2 := entity.TaskViews(task, setting)
			raw := entity.TextStatsOf(v1, v2)
			cl1 := v1.WithTexts(text.CleanAll(v1.Texts()))
			cl2 := v2.WithTexts(text.CleanAll(v2.Texts()))
			cleaned := entity.TextStatsOf(cl1, cl2)
			vocabCols = append(vocabCols, fmt.Sprintf("%d", raw.VocabularySize), fmt.Sprintf("%d", cleaned.VocabularySize))
			charCols = append(charCols, fmt.Sprintf("%d", raw.CharacterLength), fmt.Sprintf("%d", cleaned.CharacterLength))
		}
		row = append(row, vocabCols...)
		row = append(row, charCols...)
		tb.add(row...)
	}
	fmt.Fprintln(w, "Figure 3(a): best-attribute coverage per dataset")
	ta.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 3(b,c): vocabulary size and character length per schema setting (raw / cleaned)")
	tb.write(w)
}

// rankBuckets are the log-spaced ranking-position buckets of the
// Figure 4–6 histograms. "miss" counts duplicates the representation
// cannot retrieve at all (zero similarity / not indexed).
var rankBuckets = []string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128-255", ">=256", "miss"}

func bucketOf(rank int) int {
	if rank < 0 {
		return len(rankBuckets) - 1
	}
	switch {
	case rank == 0:
		return 0
	case rank == 1:
		return 1
	}
	b := 2
	for lo := 2; b < len(rankBuckets)-2; b++ {
		lo *= 2
		if rank < lo {
			return b
		}
	}
	return len(rankBuckets) - 2
}

// syntacticRanks computes, for every duplicate pair, the ranking position
// of the match among the query's candidates under the DkNN representation
// (cleaned values, C5GM multiset five-grams, cosine similarity), which the
// appendix uses as the syntactic representative.
func syntacticRanks(in *core.Input, reverse bool) []int {
	t1, t2 := in.Texts(true)
	model := text.Model{N: 5, Multiset: true}
	corpus := sparse.BuildCorpus(t1, t2, model)
	indexSets, querySets := core.Sides(reverse, corpus.Sets1, corpus.Sets2)
	idx := sparse.NewIndex(indexSets, corpus.NumTokens)

	var out []int
	for _, p := range in.Task.Truth.Pairs() {
		target, qi := core.Sides(reverse, p.Left, p.Right)
		q := querySets[qi]
		qs := len(q)
		matchSim := -1.0
		better := 0
		idx.Overlaps(q, func(e int32, overlap int) {
			sim := sparse.Cosine.Sim(overlap, qs, idx.Size(e))
			if e == target {
				matchSim = sim
			}
		})
		if matchSim <= 0 {
			out = append(out, -1)
			continue
		}
		idx.Overlaps(q, func(e int32, overlap int) {
			sim := sparse.Cosine.Sim(overlap, qs, idx.Size(e))
			if sim > matchSim || (sim == matchSim && e < target) {
				better++
			}
		})
		out = append(out, better)
	}
	return out
}

// semanticRanks computes the match ranking positions under the semantic
// representation: tuple embeddings with Euclidean distance, brute-force.
func semanticRanks(in *core.Input, reverse bool) []int {
	v1, v2 := in.Embeddings(true)
	indexed, queries := core.Sides(reverse, v1, v2)
	var out []int
	for _, p := range in.Task.Truth.Pairs() {
		target, qi := core.Sides(reverse, p.Left, p.Right)
		q := queries[qi]
		matchDist := vector.L2Sq(q, indexed[target])
		rank := 0
		for e, v := range indexed {
			if int32(e) == target {
				continue
			}
			d := vector.L2Sq(q, v)
			if d < matchDist || (d == matchDist && int32(e) < target) {
				rank++
			}
		}
		out = append(out, rank)
	}
	return out
}

// RankFigure prints the Figure 4/5/6 histograms for one dataset: the
// distribution of duplicate ranking positions under the syntactic vs the
// semantic representation.
func RankFigure(w io.Writer, task *entity.Task, setting entity.SchemaSetting, reverse bool, embedDim int) {
	in := core.NewInputDim(task, setting, embedDim)
	direction := "indexing E1, querying E2"
	if reverse {
		direction = "indexing E2, querying E1"
	}
	fmt.Fprintf(w, "%s (%s, %s)\n", task.Name, setting, direction)

	for _, repr := range []struct {
		name  string
		ranks []int
	}{
		{"syntactic (C5GM cosine)", syntacticRanks(in, reverse)},
		{"semantic (embeddings, L2)", semanticRanks(in, reverse)},
	} {
		counts := make([]int, len(rankBuckets))
		for _, r := range repr.ranks {
			counts[bucketOf(r)]++
		}
		histogram(w, "  "+repr.name, rankBuckets, counts)
	}
	fmt.Fprintln(w)
}

// Fig7 prints the run-time breakdown of every method in the report:
// block building / purging / filtering / comparison cleaning for the
// blocking workflows, preprocessing / indexing / querying for NN methods —
// the content of Figures 7, 8 and 9 (which differ only in dataset and
// schema setting coverage).
func Fig7(w io.Writer, r *Report) {
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%s run-time breakdown:\n", c.Key())
		t := newTable("method", "total", "phase breakdown")
		names := make([]string, 0, len(c.Results))
		for m := range c.Results {
			names = append(names, m)
		}
		sort.Slice(names, func(i, j int) bool { return methodOrder(names[i]) < methodOrder(names[j]) })
		for _, m := range names {
			mr := c.Results[m]
			tt := mr.Timing
			if tt.Total == 0 {
				continue
			}
			var detail string
			if tt.Build+tt.Purge+tt.Filter+tt.Clean > 0 {
				detail = fmt.Sprintf("build %s | purge %s | filter %s | clean %s",
					pct(tt.Build, tt.Total), pct(tt.Purge, tt.Total), pct(tt.Filter, tt.Total), pct(tt.Clean, tt.Total))
			} else {
				detail = fmt.Sprintf("preprocess %s | index %s | query %s",
					pct(tt.Preprocess, tt.Total), pct(tt.Index, tt.Total), pct(tt.Query, tt.Total))
			}
			t.add(m, fmtRT(tt.Total), detail)
		}
		t.write(w)
		fmt.Fprintln(w)
	}
}

func pct(part, total time.Duration) string {
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

func methodOrder(name string) int {
	for i, m := range MethodNames {
		if m == name {
			return i
		}
	}
	return len(MethodNames)
}

// Reduction prints the average candidate-pair reduction of the
// similarity-threshold methods versus the brute-force Cartesian product
// (Conclusion 3 of the paper).
func Reduction(w io.Writer, r *Report) {
	methods := []string{"MH-LSH", "CP-LSH", "HP-LSH", "eps-Join", "kNNJ", "FAISS"}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, c := range r.Cells {
		bf := c.Task.CartesianProduct()
		for _, m := range methods {
			mr := c.Results[m]
			if mr == nil || mr.Metrics.Candidates == 0 {
				continue
			}
			sums[m] += 1 - float64(mr.Metrics.Candidates)/bf
			counts[m]++
		}
	}
	t := newTable("method", "avg candidate reduction vs brute force")
	for _, m := range methods {
		if counts[m] == 0 {
			continue
		}
		t.add(m, fmt.Sprintf("%.1f%%", 100*sums[m]/float64(counts[m])))
	}
	fmt.Fprintln(w, "Candidate reduction vs brute force (Conclusion 3)")
	t.write(w)
}
