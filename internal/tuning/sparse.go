package tuning

import (
	"fmt"
	"math"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/parallel"
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

// TuneEpsJoin grid-searches the ε-Join. For every (CL, SM, RM) cell the
// similarity of every overlapping pair is computed once and binned on the
// threshold grid, so the entire threshold axis is swept in one pass; the
// winning threshold is the largest grid value whose PC still reaches the
// target (descending thresholds only add candidates, lowering PQ).
func TuneEpsJoin(in *core.Input, space SparseSpace, target float64) *Result {
	truth := in.Task.Truth
	step := space.ThresholdStep
	if step <= 0 {
		step = 0.01
	}
	bins := int(math.Round(1/step)) + 1

	// Every (CL, RM) pair is an independent branch sharing one corpus and
	// index; the measure loop and threshold descent stay inside the
	// branch (the descent early-terminates on the target).
	branches := sparseBranches(space, false)
	trackers := tuneBranches(space.Workers, len(branches), "eps-join", target, func(tr *tracker, bi int) {
		clean, model := branches[bi].clean, branches[bi].model
		t1, t2 := in.Texts(clean)
		corpus := sparse.BuildCorpus(t1, t2, model)
		idx := sparse.NewIndex(corpus.Sets1, corpus.NumTokens)
		var sc sparse.Scratch
		for _, measure := range space.Measures {
			cand := make([]int, bins)
			match := make([]int, bins)
			for e2, q := range corpus.Sets2 {
				qs := len(q)
				idx.Overlaps(q, &sc, func(e1 int32, overlap int) {
					sim := measure.Sim(overlap, qs, idx.Size(e1))
					if sim <= 0 {
						return
					}
					b := int(sim / step)
					if b >= bins {
						b = bins - 1
					}
					cand[b]++
					if truth.Contains(pair(e1, int32(e2))) {
						match[b]++
					}
				})
			}
			// Suffix sums: counts of pairs with sim >= b*step.
			for b := bins - 2; b >= 0; b-- {
				cand[b] += cand[b+1]
				match[b] += match[b+1]
			}
			// Descend thresholds from 1.0; stop at the first (largest)
			// threshold reaching the target.
			for b := bins - 1; b >= 0; b-- {
				m := metricsFromCounts(cand[b], match[b], truth.Size())
				t := float64(b) * step
				f := &core.EpsJoinFilter{Clean: clean, Model: model, Measure: measure, Threshold: t}
				cfg := map[string]string{
					"CL": fmtBool(clean), "RM": model.String(),
					"SM": measure.String(), "t": fmt.Sprintf("%.2f", t),
				}
				tr.offer(m, f, cfg)
				if m.PC >= target {
					break
				}
			}
		}
	})
	return mergeTrackers("eps-join", target, trackers)
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

// tuneBranches runs one tracker-feeding closure per branch on the worker
// pool and returns the branch trackers in canonical order.
func tuneBranches(workers, n int, method string, target float64, fn func(tr *tracker, bi int)) []*tracker {
	trackers := make([]*tracker, n)
	err := parallel.ForEach(workers, n, func(bi int) error {
		tr := newTracker(method, target)
		fn(tr, bi)
		trackers[bi] = tr
		return nil
	})
	if err != nil {
		// Branch closures are infallible; only a recovered panic lands
		// here. Re-raise it like the sequential loop would.
		panic(err)
	}
	return trackers
}

// mergeTrackers reduces branch trackers in canonical order.
func mergeTrackers(method string, target float64, trackers []*tracker) *Result {
	final := newTracker(method, target)
	for _, tr := range trackers {
		final.merge(tr)
	}
	return final.result()
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
	trackers := tuneBranches(space.Workers, len(branches), "kNN-Join", target, func(tr *tracker, bi int) {
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
			tr.offerAscending(grid, ms, func(k int) (core.Filter, map[string]string) {
				return &core.KNNJoinFilter{Clean: clean, Model: model, Measure: measure, K: k, Reverse: reverse},
					map[string]string{
						"CL": fmtBool(clean), "RVS": fmtBool(reverse),
						"RM": model.String(), "SM": measure.String(),
						"K": fmt.Sprintf("%d", k),
					}
			})
		}
	})
	return mergeTrackers("kNN-Join", target, trackers)
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
