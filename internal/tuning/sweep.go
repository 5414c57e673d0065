package tuning

import (
	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
)

// kGrid returns the paper's cardinality-threshold grid: [1,100] step 1,
// [105,1000] step 5, [1010,5000] step 10, capped at maxK.
func kGrid(maxK int) []int {
	var out []int
	add := func(lo, hi, step int) {
		for k := lo; k <= hi && k <= maxK; k += step {
			out = append(out, k)
		}
	}
	add(1, 100, 1)
	add(105, 1000, 5)
	add(1010, 5000, 10)
	return out
}

// sweepK evaluates a cardinality-threshold method at every K of an
// ascending grid from one search per query, at the grid's largest K:
// every smaller K keeps a prefix of that answer. A hit is counted under
// the smallest K that admits it — its position in the answer under
// hit.Top, the number of distinct scores down to its own under
// hit.Distinct (the kNN-Join, whose K counts similarity values) — and a
// prefix sum over those counts gives the candidates and matches of each
// grid value. search answers query q of queries at k, sorted; reverse is
// the direction its hits pair up in.
//
// The whole grid is evaluated: stopping at the first K that reaches τ is
// the caller's decision (tracker.ladder), which a caller that
// averages repetitions must take on the averages, not per repetition.
func sweepK(cut hit.Cut, grid []int, reverse bool, truth *entity.GroundTruth, queries int, search func(q, k int) []hit.Hit) []core.Metrics {
	if len(grid) == 0 {
		return nil
	}
	top := grid[len(grid)-1]
	// candAt[k]/matchAt[k]: pairs gained when the threshold grows from
	// k-1 to k.
	candAt := make([]int, top+1)
	matchAt := make([]int, top+1)
	for q := 0; q < queries; q++ {
		hits := search(q, top)
		k := 0
		for i, h := range hits {
			if cut != hit.Distinct || i == 0 || h.Score != hits[i-1].Score {
				k++
			}
			candAt[k]++
			if truth.Contains(core.PairOf(reverse, q, h.ID)) {
				matchAt[k]++
			}
		}
	}
	out := make([]core.Metrics, len(grid))
	cands, matches, k := 0, 0, 0
	for i, next := range grid {
		for k < next {
			k++
			cands += candAt[k]
			matches += matchAt[k]
		}
		out[i] = metricsFromCounts(cands, matches, truth.Size())
	}
	return out
}
