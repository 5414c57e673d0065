package tuning

import (
	"fmt"

	"erfilter/internal/blocking"
	"erfilter/internal/cleaning"
	"erfilter/internal/core"
	"erfilter/internal/metablocking"
	"erfilter/internal/parallel"
)

// BlockingSpace is the configuration space of one blocking workflow family
// (one row group of Table III).
type BlockingSpace struct {
	// Label is the family name: SBW, QBW, EQBW, SABW, ESABW.
	Label string
	// Builders enumerates the block-building parameter grid.
	Builders []blocking.Builder
	// Proactive marks the Suffix Arrays families, which are not combined
	// with block cleaning (Section V, "Configuration space").
	Proactive bool
	// FilterRatios is the Block Filtering grid, descending; ignored for
	// proactive families.
	FilterRatios []float64
	// Cleanings is the comparison cleaning grid (CP + Meta-blocking
	// combinations).
	Cleanings []core.ComparisonCleaning
	// Workers bounds the grid-search worker pool (<=0 = GOMAXPROCS,
	// 1 = one branch at a time); it bounds branches, not cores, since each
	// filter run probes on GOMAXPROCS workers. Results are identical at
	// any worker count.
	Workers int
}

// CleaningGrid returns Comparison Propagation plus the cross product of
// the given schemes and algorithms.
func CleaningGrid(schemes []metablocking.Scheme, algorithms []metablocking.Algorithm) []core.ComparisonCleaning {
	out := []core.ComparisonCleaning{{Propagation: true}}
	for _, s := range schemes {
		for _, a := range algorithms {
			out = append(out, core.ComparisonCleaning{Scheme: s, Algorithm: a})
		}
	}
	return out
}

// FullCleaningGrid is CP plus all 42 Meta-blocking combinations.
func FullCleaningGrid() []core.ComparisonCleaning {
	return CleaningGrid(metablocking.Schemes(), metablocking.Algorithms())
}

// ratioGrid returns r values from 1.0 down to lo with the given step.
func ratioGrid(lo, step float64) []float64 {
	var out []float64
	for r := 1.0; r >= lo-1e-9; r -= step {
		out = append(out, r)
	}
	return out
}

// BlockingSpaces returns the five workflow families of Table III.
// full=true uses the paper's complete grids; full=false uses reduced but
// representative grids (documented in DESIGN.md) for laptop-scale sweeps.
func BlockingSpaces(full bool) []BlockingSpace {
	var ratios []float64
	var cleanings []core.ComparisonCleaning
	var qs, lmins, bmaxs []int
	var tvals []float64
	if full {
		ratios = ratioGrid(0.025, 0.025)
		cleanings = FullCleaningGrid()
		qs = []int{2, 3, 4, 5, 6}
		tvals = []float64{0.8, 0.85, 0.9, 0.95}
		lmins = []int{2, 3, 4, 5, 6}
		for b := 2; b <= 100; b++ {
			bmaxs = append(bmaxs, b)
		}
	} else {
		ratios = ratioGrid(0.2, 0.2)
		cleanings = CleaningGrid(
			[]metablocking.Scheme{metablocking.ARCS, metablocking.CBS, metablocking.ECBS, metablocking.ChiSquare},
			[]metablocking.Algorithm{metablocking.BLAST, metablocking.RCNP, metablocking.WEP, metablocking.WNP, metablocking.RWNP},
		)
		qs = []int{3, 4, 5, 6}
		tvals = []float64{0.8, 0.9}
		lmins = []int{2, 3, 4, 6}
		bmaxs = []int{5, 10, 25, 50, 100}
	}

	var qb []blocking.Builder
	for _, q := range qs {
		qb = append(qb, blocking.QGrams{Q: q})
	}
	var eqb []blocking.Builder
	for _, q := range qs {
		for _, t := range tvals {
			eqb = append(eqb, blocking.ExtendedQGrams{Q: q, T: t})
		}
	}
	var sab, esab []blocking.Builder
	for _, l := range lmins {
		for _, b := range bmaxs {
			sab = append(sab, blocking.SuffixArrays{Lmin: l, Bmax: b})
			esab = append(esab, blocking.ExtendedSuffixArrays{Lmin: l, Bmax: b})
		}
	}

	return []BlockingSpace{
		{Label: "SBW", Builders: []blocking.Builder{blocking.Standard{}}, FilterRatios: ratios, Cleanings: cleanings},
		{Label: "QBW", Builders: qb, FilterRatios: ratios, Cleanings: cleanings},
		{Label: "EQBW", Builders: eqb, FilterRatios: ratios, Cleanings: cleanings},
		{Label: "SABW", Builders: sab, Proactive: true, Cleanings: cleanings},
		{Label: "ESABW", Builders: esab, Proactive: true, Cleanings: cleanings},
	}
}

// TuneBlocking grid-searches one blocking workflow family under Problem 1.
// Blocks are built once per builder and shared across the block cleaning
// and comparison cleaning grids; per the paper, the Block Purging /
// Filtering loop terminates early once the recall upper bound of the
// cleaned blocks drops below the target, since comparison cleaning can
// only lose further recall.
//
// The search runs on space.Workers goroutines: builders are independent
// branches, each evaluated by its own tracker, and within a (builder,
// purge, ratio) line the comparison-cleaning grid fans out too. Only the
// Block Filtering ladder stays sequential — its early termination depends
// on the previous ratio's recall. Branch trackers are merged in canonical
// grid order, so the result is identical at any worker count.
func TuneBlocking(in *core.Input, space BlockingSpace, target float64) *Result {
	workers := parallel.Workers(space.Workers)
	// Split the worker budget between the builder branches and the
	// cleaning grid inside each branch: families with one builder (SBW)
	// parallelize the inner grid, wide families (SABW) the outer.
	inner := 1
	if nb := len(space.Builders); nb < workers {
		inner = (workers + nb - 1) / nb
	}
	res, _ := tuneBranches(workers, len(space.Builders), space.Label, target, func(tr *tracker, bi int) error {
		builder := space.Builders[bi]
		space.cleaningAxes(blocking.Build(in.V1, in.V2, builder), func(purge bool, r float64, blocks *blocking.Collection) bool {
			w := core.BlockingWorkflow{Label: space.Label, Builder: builder, Purging: purge, FilterRatio: r}
			g := metablocking.BuildGraph(blocks)
			ub := core.Evaluate(g.Pairs, in.Task.Truth)
			if ub.PC < target {
				// Smaller ratios only shrink the blocks further:
				// stop this grid line, as in the paper.
				w.Cleaning = core.ComparisonCleaning{Propagation: true}
				tr.offer(ub, &w, blockConfig(&w))
				return false
			}
			space.offerCleanings(tr, in, inner, w, blocks, g, ub)
			return true
		})
		return nil
	})
	return res
}

// cleaningAxes walks the block cleaning grid of a family over one
// builder's blocks: Block Purging off, then on, and under each the Block
// Filtering ratios descending (neither for the proactive families). line
// sees each cleaned collection and returns false to end its purge line:
// a smaller ratio only shrinks the blocks further.
func (s BlockingSpace) cleaningAxes(raw *blocking.Collection, line func(purge bool, r float64, blocks *blocking.Collection) bool) {
	purges, ratios := []bool{false, true}, s.FilterRatios
	if s.Proactive {
		purges, ratios = []bool{false}, []float64{1}
	}
	for _, purge := range purges {
		base := raw
		if purge {
			base = cleaning.Purge(raw)
		}
		for _, r := range ratios {
			blocks := base
			if r < 1 {
				blocks = cleaning.Filter(base, r)
			}
			if !line(purge, r, blocks) {
				break
			}
		}
	}
}

// offerCleanings evaluates the comparison cleaning grid on g, the graph of
// the cleaned blocks of workflow w, whose own metrics ub are Comparison
// Propagation's, and offers each cleaning in grid order. The cleanings
// are independent reads of the shared graph and run on workers
// goroutines.
func (s BlockingSpace) offerCleanings(tr *tracker, in *core.Input, workers int, w core.BlockingWorkflow, blocks *blocking.Collection, g *metablocking.Graph, ub core.Metrics) {
	tp := blocks.TotalPlacements()
	metrics, err := parallel.Map(workers, len(s.Cleanings), func(ci int) (core.Metrics, error) {
		cl := s.Cleanings[ci]
		if cl.Propagation {
			return ub, nil
		}
		return core.Evaluate(metablocking.Prune(g, cl.Scheme, cl.Algorithm, tp), in.Task.Truth), nil
	})
	if err != nil {
		panic(err) // only a recovered worker panic lands here
	}
	for ci, m := range metrics {
		f := w
		f.Cleaning = s.Cleanings[ci]
		tr.offer(m, &f, blockConfig(&f))
	}
}

func blockConfig(w *core.BlockingWorkflow) map[string]string {
	cfg := map[string]string{
		"builder": w.Builder.Name(),
		"BP":      fmtBool(w.Purging),
		"BFr":     fmt.Sprintf("%.3f", w.FilterRatio),
	}
	if w.Cleaning.Propagation {
		cfg["PA"] = "CP"
	} else {
		cfg["PA"] = w.Cleaning.Algorithm.String()
		cfg["WS"] = w.Cleaning.Scheme.String()
	}
	return cfg
}
