// Package tuning implements the configuration optimization of Problem 1:
// given a task, a filtering method's configuration space (Tables III, IV
// and V) and a recall target τ, it grid-searches the parameters that
// maximize Pairs Quality subject to Pair Completeness ≥ τ, using the
// paper's early-termination rules (blocking: stop shrinking blocks once
// the recall upper bound falls below τ; ε-Join: descend thresholds;
// cardinality methods: ascend K and stop at the first configuration that
// reaches τ).
package tuning

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"erfilter/internal/core"
	"erfilter/internal/parallel"
)

// DefaultTarget is the paper's recall threshold τ = 0.9 on PC.
const DefaultTarget = 0.9

// Result is the outcome of tuning one method on one input.
type Result struct {
	// Method is the family label, e.g. "SBW" or "kNN-Join".
	Method string
	// Config documents the winning parameter values (Tables VIII–X).
	Config map[string]string
	// Filter rebuilds the winning configuration (nil when no
	// configuration was evaluated at all).
	Filter core.Filter
	// Metrics of the winning configuration.
	Metrics core.Metrics
	// Satisfied reports whether PC >= τ was achieved; when false, the
	// result is the configuration with the highest PC instead (its PQ is
	// reported in red in the paper's tables).
	Satisfied bool
	// Evaluated counts the examined configurations.
	Evaluated int
}

// ConfigString renders the config map deterministically for reports.
func (r *Result) ConfigString() string {
	keys := make([]string, 0, len(r.Config))
	for k := range r.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, r.Config[k]))
	}
	return strings.Join(parts, " ")
}

// tracker accumulates the best configuration under Problem 1 semantics.
// A tracker is not safe for concurrent use; parallel grid searches give
// every independent branch its own tracker and merge them afterwards in
// canonical branch order (see merge).
type tracker struct {
	target  float64
	best    Result
	offered bool
}

func newTracker(method string, target float64) *tracker {
	return &tracker{target: target, best: Result{Method: method, Metrics: core.Metrics{PC: -1}}}
}

// offer considers one evaluated configuration and reports whether it is
// the best so far.
func (t *tracker) offer(m core.Metrics, f core.Filter, config map[string]string) bool {
	t.best.Evaluated++
	return t.consider(m, f, config)
}

// consider applies the Problem-1 comparison without counting an
// evaluation. All comparisons are strict, so on ties the incumbent — the
// configuration offered first in canonical grid order — wins; this is
// what makes the parallel reduction reproduce the sequential scan
// exactly.
func (t *tracker) consider(m core.Metrics, f core.Filter, config map[string]string) bool {
	satisfies := m.PC >= t.target
	better := false
	switch {
	case !t.offered:
		better = true
	case satisfies && !t.best.Satisfied:
		better = true
	case satisfies && t.best.Satisfied:
		better = m.PQ > t.best.Metrics.PQ
	case !satisfies && !t.best.Satisfied:
		// Track the highest-recall configuration as the fallback,
		// breaking ties by precision.
		better = m.PC > t.best.Metrics.PC ||
			(m.PC == t.best.Metrics.PC && m.PQ > t.best.Metrics.PQ)
	}
	if better {
		t.offered = true
		evaluated := t.best.Evaluated
		t.best = Result{
			Method:    t.best.Method,
			Config:    config,
			Filter:    f,
			Metrics:   m,
			Satisfied: satisfies,
			Evaluated: evaluated,
		}
	}
	return better
}

// merge folds a branch tracker into the receiver: evaluation counts
// accumulate and the branch's winner competes under the same Problem-1
// comparison. Merging branch trackers in canonical branch order yields
// exactly the result of the sequential scan, because each branch winner
// is the first optimum within its branch and consider breaks ties in
// favor of the earlier (lower-index) branch.
func (t *tracker) merge(o *tracker) {
	t.best.Evaluated += o.best.Evaluated
	if !o.offered {
		return
	}
	t.consider(o.best.Metrics, o.best.Filter, o.best.Config)
}

func (t *tracker) result() *Result {
	r := t.best
	return &r
}

// ladder offers configuration i = 0, 1, … of one axis walked in the
// order that only adds candidates — K up, thresholds down, probes up —
// and, per the paper, stops at the first that reaches the target recall:
// every later rung only adds worse candidates. rung evaluates
// configuration i; its error ends the ladder.
func (t *tracker) ladder(n int, rung func(i int) (core.Metrics, core.Filter, map[string]string, error)) error {
	for i := 0; i < n; i++ {
		m, f, config, err := rung(i)
		if err != nil {
			return err
		}
		t.offer(m, f, config)
		if m.PC >= t.target {
			return nil
		}
	}
	return nil
}

// tuneBranches runs fn once per independent branch of a grid on the
// worker pool, each branch feeding its own tracker, and merges the
// trackers in canonical branch order, so the result is the sequential
// scan's at any worker count. The error returned is the lowest-index
// branch's (callers whose branches cannot fail discard it); a recovered
// worker panic is re-raised, as the sequential loop would.
func tuneBranches(workers, n int, method string, target float64, fn func(*tracker, int) error) (*Result, error) {
	trackers := make([]*tracker, n)
	err := parallel.ForEach(workers, n, func(bi int) error {
		trackers[bi] = newTracker(method, target)
		return fn(trackers[bi], bi)
	})
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		panic(err)
	}
	if err != nil {
		return nil, err
	}
	final := newTracker(method, target)
	for _, tr := range trackers {
		final.merge(tr)
	}
	return final.result(), nil
}

func fmtBool(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}
