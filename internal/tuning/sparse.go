package tuning

import (
	"fmt"
	"math"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// SparseSpace is the configuration space of the sparse NN methods
// (Table IV).
type SparseSpace struct {
	CleanOptions []bool
	Measures     []sparse.Measure
	Models       []text.Model
	// MaxK is the largest kNN-Join cardinality threshold examined.
	MaxK int
	// ThresholdStep is the ε-Join grid step (0.01 in the paper).
	ThresholdStep float64
	// Workers bounds the grid-search worker pool (<=0 = GOMAXPROCS,
	// 1 = one branch at a time); it bounds branches, not cores, since each
	// filter run probes on GOMAXPROCS workers. Results are identical at
	// any worker count.
	Workers int
}

// DefaultSparseSpace returns the Table IV grid; full=false thins the
// representation-model axis.
func DefaultSparseSpace(full bool) SparseSpace {
	s := SparseSpace{
		CleanOptions:  []bool{false, true},
		Measures:      sparse.Measures(),
		MaxK:          100,
		ThresholdStep: 0.01,
	}
	if full {
		s.Models = text.Models()
	} else {
		for _, name := range []string{"T1G", "C2G", "C3G", "C3GM", "C4G", "C5GM"} {
			m, _ := text.ParseModel(name)
			s.Models = append(s.Models, m)
		}
		s.MaxK = 30
	}
	return s
}

// TuneEpsJoin grid-searches the ε-Join. For every (CL, RM) branch the
// overlaps of every query are counted once and each overlapping pair is
// binned on the threshold grid under every measure, so the entire
// (SM, t) plane is swept in one pass; per measure the winning threshold
// is the largest grid value whose PC still reaches the target
// (descending thresholds only add candidates, lowering PQ).
func TuneEpsJoin(in *core.Input, space SparseSpace, target float64) *Result {
	truth := in.Task.Truth
	step := space.ThresholdStep
	if step <= 0 {
		step = 0.01
	}
	bins := int(math.Round(1/step)) + 1

	// Every (CL, RM) pair is an independent branch sharing one corpus and
	// index; the measures and their threshold ladders stay inside it.
	branches := sparseBranches(space, false)
	r, _ := tuneBranches(space.Workers, len(branches), "eps-join", target, func(tr *tracker, bi int) error {
		clean, model := branches[bi].clean, branches[bi].model
		t1, t2 := in.Texts(clean)
		corpus := sparse.BuildCorpus(t1, t2, model)
		idx := sparse.NewIndex(corpus.Sets1, corpus.NumTokens)
		var sc sparse.Scratch
		// cand/match[mi*bins+b]: pairs whose similarity under measure mi
		// falls in bin b, and the matches among them.
		cand := make([]int, len(space.Measures)*bins)
		match := make([]int, len(cand))
		for e2, q := range corpus.Sets2 {
			idx.Overlaps(q, &sc, func(e1 int32, overlap int) {
				isMatch := truth.Contains(pair(e1, int32(e2)))
				for mi, measure := range space.Measures {
					sim := measure.Sim(overlap, len(q), idx.Size(e1))
					if sim <= 0 {
						continue
					}
					b := mi*bins + min(int(sim/step), bins-1)
					cand[b]++
					if isMatch {
						match[b]++
					}
				}
			})
		}
		for mi, measure := range space.Measures {
			cand, match := cand[mi*bins:(mi+1)*bins], match[mi*bins:(mi+1)*bins]
			// Suffix sums: counts of pairs with sim >= b*step.
			for b := bins - 2; b >= 0; b-- {
				cand[b] += cand[b+1]
				match[b] += match[b+1]
			}
			// Descend thresholds from 1.0.
			tr.ladder(bins, func(i int) (core.Metrics, core.Filter, map[string]string, error) {
				b := bins - 1 - i
				t := float64(b) * step
				return metricsFromCounts(cand[b], match[b], truth.Size()),
					&core.EpsJoinFilter{Clean: clean, Model: model, Measure: measure, Threshold: t},
					map[string]string{
						"CL": fmtBool(clean), "RM": model.String(),
						"SM": measure.String(), "t": fmt.Sprintf("%.2f", t),
					}, nil
			})
		}
		return nil
	})
	return r
}

// sparseBranch is one independent (CL, RVS, RM) grid branch of the sparse
// tuners.
type sparseBranch struct {
	clean, reverse bool
	model          text.Model
}

// sparseBranches enumerates the independent branches of a sparse space in
// canonical grid order; the RVS axis participates only for the kNN-Join.
func sparseBranches(space SparseSpace, withReverse bool) []sparseBranch {
	reverses := directions[:1]
	if withReverse {
		reverses = directions
	}
	var out []sparseBranch
	for _, clean := range space.CleanOptions {
		for _, reverse := range reverses {
			for _, model := range space.Models {
				out = append(out, sparseBranch{clean: clean, reverse: reverse, model: model})
			}
		}
	}
	return out
}

// TuneKNNJoin grid-searches the kNN-Join. For every (CL, RVS, RM) branch
// one corpus and one index are built; for every measure over them the
// per-query ranked neighbor lists are computed once, up to MaxK distinct
// similarity values, and sweepK reads the whole K axis off them (the
// grid is 1..MaxK up to the paper's 100, kGrid's steps beyond).
func TuneKNNJoin(in *core.Input, space SparseSpace, target float64) *Result {
	maxK := space.MaxK
	if maxK <= 0 {
		maxK = 100
	}
	grid := kGrid(maxK)

	branches := sparseBranches(space, true)
	r, _ := tuneBranches(space.Workers, len(branches), "kNN-Join", target, func(tr *tracker, bi int) error {
		clean, reverse, model := branches[bi].clean, branches[bi].reverse, branches[bi].model
		t1, t2 := in.Texts(clean)
		corpus := sparse.BuildCorpus(t1, t2, model)
		indexSets, querySets := core.Sides(reverse, corpus.Sets1, corpus.Sets2)
		idx := sparse.NewIndex(indexSets, corpus.NumTokens)
		var sc sparse.Scratch
		for _, measure := range space.Measures {
			ms := sweepK(hit.Distinct, grid, reverse, in.Task.Truth, len(querySets), func(q, k int) []hit.Hit {
				return idx.KNNQuery(querySets[q], measure, k, &sc)
			})
			tr.ladder(len(grid), func(i int) (core.Metrics, core.Filter, map[string]string, error) {
				return ms[i], &core.KNNJoinFilter{Clean: clean, Model: model, Measure: measure, K: grid[i], Reverse: reverse},
					map[string]string{
						"CL": fmtBool(clean), "RVS": fmtBool(reverse),
						"RM": model.String(), "SM": measure.String(),
						"K": fmt.Sprintf("%d", grid[i]),
					}, nil
			})
		}
		return nil
	})
	return r
}

func metricsFromCounts(cands, matches, truthSize int) core.Metrics {
	m := core.Metrics{Candidates: cands, Matches: matches}
	if truthSize > 0 {
		m.PC = float64(matches) / float64(truthSize)
	}
	if cands > 0 {
		m.PQ = float64(matches) / float64(cands)
	}
	return m
}

func pair(l, r int32) entity.Pair {
	return entity.Pair{Left: l, Right: r}
}
