package tuning

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
)

// TestSweepKMatchesDefinition holds the one K-sweep to what it stands
// for: the metrics it reports at K are Evaluate of every query's answer
// cut at K. The answers are random and tie-heavy — a handful of distinct
// scores — which is where counting hits and counting distinct scores part
// ways, and K runs past the longest answer.
func TestSweepKMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	grid := []int{1, 2, 3, 5, 8, 13}
	for trial := 0; trial < 50; trial++ {
		const indexed = 12
		answers := make([][]hit.Hit, 1+rng.Intn(8))
		var truth []entity.Pair
		reverse := trial%2 == 1
		for q := range answers {
			for _, id := range rng.Perm(indexed)[:rng.Intn(indexed+1)] {
				answers[q] = append(answers[q], hit.Hit{ID: int64(id), Score: float64(rng.Intn(4)) / 4})
				if rng.Intn(3) == 0 {
					truth = append(truth, core.PairOf(reverse, q, int64(id)))
				}
			}
			hit.Sort(answers[q])
		}
		truth = append(truth, core.PairOf(reverse, len(answers), 0)) // a duplicate no answer holds: PC < 1
		gt := entity.NewGroundTruth(truth)

		for _, cut := range []hit.Cut{hit.Top, hit.Distinct} {
			got := sweepK(cut, grid, reverse, gt, len(answers), func(q, k int) []hit.Hit {
				if k != grid[len(grid)-1] {
					t.Fatalf("searched at k=%d, want one search at the grid's largest K", k)
				}
				return cut.Apply(slices.Clone(answers[q]), k)
			})
			for i, k := range grid {
				var pairs []entity.Pair
				for q, hs := range answers {
					for _, h := range cut.Apply(slices.Clone(hs), k) {
						pairs = append(pairs, core.PairOf(reverse, q, h.ID))
					}
				}
				if want := core.Evaluate(pairs, gt); got[i] != want {
					t.Fatalf("trial %d cut %d K=%d: sweep reports %+v, the cut answers evaluate to %+v", trial, cut, k, got[i], want)
				}
			}
		}
	}
	if got := sweepK(hit.Top, nil, false, entity.NewGroundTruth(nil), 3, nil); got != nil {
		t.Fatalf("empty grid: %v", got)
	}
}

// TestTuneDeepBlockerAveragesCompleteCells recomputes the winner's
// (CL, RVS) branch the slow way — run DeepBlockerFilter at each K under
// each repetition's seed, average, take the first K whose mean recall
// reaches τ — on a case where the repetitions disagree by more than 0.05
// PC. A tuner that lets each repetition stop its own sweep divides cells
// some repetitions never reached by all of them, reads the missing
// contributions as recall 0, and reports this task as unsatisfied at K=28.
func TestTuneDeepBlockerAveragesCompleteCells(t *testing.T) {
	const target, reps = 0.9, 5
	in := core.NewInputDim(datagen.ByName("D3", 0.02), entity.SchemaAgnostic, 32)
	in.Seed = 7
	space := DefaultDenseSpace(false)
	space.Repetitions, space.AEEpochs, space.AEHidden = reps, 1, 2
	r, err := TuneDeepBlocker(in, space, target)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Satisfied {
		t.Fatalf("tuner reports %s PC=%.4f unsatisfied", r.ConfigString(), r.Metrics.PC)
	}

	won := r.Filter.(*core.DeepBlockerFilter)
	for _, k := range kGrid(space.MaxK) {
		var mean core.Metrics
		for rep := 0; rep < reps; rep++ {
			f := *won
			f.K = k
			out, err := f.Run(in.WithSeed(in.Seed + uint64(rep)*0x51ed))
			if err != nil {
				t.Fatal(err)
			}
			m := core.Evaluate(out.Pairs, in.Task.Truth)
			mean.PC += m.PC
			mean.PQ += m.PQ
			mean.Candidates += m.Candidates
			mean.Matches += m.Matches
		}
		mean = core.Metrics{PC: mean.PC / reps, PQ: mean.PQ / reps, Candidates: mean.Candidates / reps, Matches: mean.Matches / reps}
		if mean.PC < target {
			continue
		}
		if r.Config["K"] != strconv.Itoa(k) || r.Metrics != mean {
			t.Fatalf("tuner picked K=%s %+v; the first K whose mean over %d runs reaches τ is %d %+v",
				r.Config["K"], r.Metrics, reps, k, mean)
		}
		return
	}
	t.Fatalf("no K reaches τ on the branch the tuner reports satisfied: %s", r.ConfigString())
}
