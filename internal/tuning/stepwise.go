package tuning

import (
	"erfilter/internal/blocking"
	"erfilter/internal/core"
	"erfilter/internal/metablocking"
	"erfilter/internal/parallel"
)

// TuneBlockingStepwise implements the *step-by-step* configuration
// optimization of the prior blocking study the paper improves upon
// (Section II): first block building is optimized in isolation (judged
// through Comparison Propagation), then Block Purging and Block Filtering
// are tuned on the frozen builder, and finally comparison cleaning is
// tuned on the frozen blocks. The paper argues — citing its predecessors —
// that this gets stuck in local maxima per step and explores far fewer
// combinations than the holistic TuneBlocking; the ablation reproduces
// that comparison.
func TuneBlockingStepwise(in *core.Input, space BlockingSpace, target float64) *Result {
	truth := in.Task.Truth
	method := space.Label + "-stepwise"

	// Step 1: pick the builder in isolation. The builder evaluations are
	// independent, so they fan out on the worker pool; the winner is
	// selected by offering the results in canonical grid order, exactly
	// like the sequential loop. Every step judges its candidates with a
	// tracker, the one statement of what Problem 1 calls better.
	type builderEval struct {
		blocks *blocking.Collection
		m      core.Metrics
	}
	evals, perr := parallel.Map(space.Workers, len(space.Builders), func(i int) (builderEval, error) {
		blocks := blocking.Build(in.V1, in.V2, space.Builders[i])
		return builderEval{blocks: blocks, m: core.Evaluate(metablocking.Propagate(blocks), truth)}, nil
	})
	if perr != nil {
		panic(perr) // only a recovered worker panic can land here
	}
	step1 := newTracker(method, target)
	best := core.BlockingWorkflow{Label: space.Label, FilterRatio: 1}
	var bestBlocks *blocking.Collection
	for i, ev := range evals {
		if step1.offer(ev.m, nil, nil) {
			best.Builder, bestBlocks = space.Builders[i], ev.blocks
		}
	}
	if !step1.offered {
		return &Result{Method: method}
	}

	// Step 2: tune block cleaning on the frozen builder.
	step2 := newTracker(method, target)
	cleanedBlocks := bestBlocks
	space.cleaningAxes(bestBlocks, func(purge bool, r float64, blocks *blocking.Collection) bool {
		m := core.Evaluate(metablocking.Propagate(blocks), truth)
		if step2.offer(m, nil, nil) {
			best.Purging, best.FilterRatio, cleanedBlocks = purge, r, blocks
		}
		return m.PC >= target // smaller ratios only lose more recall
	})

	// Step 3: tune comparison cleaning on the frozen blocks.
	tr := newTracker(method, target)
	g := metablocking.BuildGraph(cleanedBlocks)
	space.offerCleanings(tr, in, space.Workers, best, cleanedBlocks, g, core.Evaluate(g.Pairs, truth))
	r := tr.result()
	r.Evaluated += step1.best.Evaluated + step2.best.Evaluated
	return r
}
