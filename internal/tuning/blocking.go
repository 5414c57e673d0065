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
	// Workers bounds the grid-search worker pool (<=0 = NumCPU,
	// 1 = sequential). Results are identical at any worker count.
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

	trackers := make([]*tracker, len(space.Builders))
	err := parallel.ForEach(workers, len(space.Builders), func(bi int) error {
		tr := newTracker(space.Label, target)
		tuneBuilder(tr, in, space, space.Builders[bi], target, inner)
		trackers[bi] = tr
		return nil
	})
	if err != nil {
		// The grid evaluation itself is infallible; only a panic inside a
		// worker lands here. Re-raise it like the sequential loop would.
		panic(err)
	}

	final := newTracker(space.Label, target)
	for _, tr := range trackers {
		final.merge(tr)
	}
	return final.result()
}

// tuneBuilder walks the block-cleaning and comparison-cleaning grids of a
// single builder, feeding one tracker.
func tuneBuilder(tr *tracker, in *core.Input, space BlockingSpace, builder blocking.Builder, target float64, workers int) {
	truth := in.Task.Truth
	purgeOptions := []bool{false, true}
	ratios := space.FilterRatios
	if space.Proactive {
		purgeOptions = []bool{false}
		ratios = []float64{1}
	}

	raw := blocking.Build(in.V1, in.V2, builder)
	for _, purge := range purgeOptions {
		base := raw
		if purge {
			base = cleaning.Purge(raw)
		}
		for _, r := range ratios {
			blocks := base
			if r < 1 {
				blocks = cleaning.Filter(base, r)
			}
			g := metablocking.BuildGraph(blocks)
			ub := core.Evaluate(g.Pairs, truth)
			if ub.PC < target {
				// Smaller ratios only shrink the blocks further:
				// stop this grid line, as in the paper.
				tr.addEvaluated(len(space.Cleanings))
				tr.offer(ub, workflowFilter(space.Label, builder, purge, r, core.ComparisonCleaning{Propagation: true}), blockConfig(builder, purge, r, core.ComparisonCleaning{Propagation: true}))
				break
			}
			tp := blocks.TotalPlacements()
			// The cleanings are independent reads of the shared graph:
			// evaluate them concurrently, then offer in grid order.
			metrics, err := parallel.Map(workers, len(space.Cleanings), func(ci int) (core.Metrics, error) {
				cl := space.Cleanings[ci]
				if cl.Propagation {
					return ub, nil
				}
				pairs := metablocking.Prune(g, cl.Scheme, cl.Algorithm, tp)
				return core.Evaluate(pairs, truth), nil
			})
			if err != nil {
				panic(err)
			}
			for ci, m := range metrics {
				cl := space.Cleanings[ci]
				tr.offer(m, workflowFilter(space.Label, builder, purge, r, cl), blockConfig(builder, purge, r, cl))
			}
		}
	}
}

func workflowFilter(label string, b blocking.Builder, purge bool, r float64, cl core.ComparisonCleaning) *core.BlockingWorkflow {
	return &core.BlockingWorkflow{
		Label:       label,
		Builder:     b,
		Purging:     purge,
		FilterRatio: r,
		Cleaning:    cl,
	}
}

func blockConfig(b blocking.Builder, purge bool, r float64, cl core.ComparisonCleaning) map[string]string {
	cfg := map[string]string{
		"builder": b.Name(),
		"BP":      fmtBool(purge),
		"BFr":     fmt.Sprintf("%.3f", r),
	}
	if cl.Propagation {
		cfg["PA"] = "CP"
	} else {
		cfg["PA"] = cl.Algorithm.String()
		cfg["WS"] = cl.Scheme.String()
	}
	return cfg
}
