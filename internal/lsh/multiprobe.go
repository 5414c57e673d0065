// Package lsh implements the three locality-sensitive hashing families of
// Section IV-D: MinHash LSH over character k-shingles, Hyperplane LSH and
// Cross-Polytope LSH over dense embedding vectors, the latter two with
// multi-probe querying as in FALCONN.
package lsh

import "container/heap"

// Scratch is one prober's query state over an LSH index: the visit set
// that reports an entity once per query however many of its buckets it
// shares, and the dense families' per-query buffers. An index is immutable
// once built, so any number of goroutines may query one at once, each
// with its own Scratch. The zero value is ready to use and grows on
// demand.
type Scratch struct {
	seen visits
	dots []float64 // Hyperplane: the query's projections on one table's planes
	bits []bool    // Hyperplane: their signs
	buf  []float64 // Cross-Polytope: the query, padded and rotated
}

// visits is the set of entities the current query has reported: one stamp
// per indexed entity, equal to round once the entity has been seen.
// Rounds start at 1, so a zero stamp is never current.
type visits struct {
	stamp []int64
	round int64
}

// begin starts a query over an index of n entities.
func (v *visits) begin(n int) {
	if len(v.stamp) < n {
		v.stamp = make([]int64, n)
	}
	v.round++
}

// report invokes fn for every entity of the bucket the query has not
// reported yet.
func (v *visits) report(bucket []int32, fn func(e int32)) {
	for _, e := range bucket {
		if v.stamp[e] != v.round {
			v.stamp[e] = v.round
			fn(e)
		}
	}
}

// probeSequence enumerates up to max per-position option-index combinations
// in increasing total-penalty order. options[p] holds the penalties of
// position p's choices sorted ascending, with options[p][0] == 0 being the
// base (best) choice. The first returned combination is the all-zeros base
// probe. This is the generic multi-probe engine shared by the Hyperplane
// (bit flips weighted by margin) and Cross-Polytope (alternative vertices
// weighted by coordinate gap) families.
func probeSequence(options [][]float64, max int) [][]int {
	if max <= 0 {
		return nil
	}
	n := len(options)
	base := make([]int, n)
	out := [][]int{base}
	if max == 1 || n == 0 {
		return out
	}

	pq := &probeHeap{}
	seen := map[string]bool{}
	push := func(choices []int, cost float64) {
		k := fingerprint(choices)
		if seen[k] {
			return
		}
		seen[k] = true
		heap.Push(pq, probeState{choices: choices, cost: cost})
	}
	cost := func(choices []int) float64 {
		var c float64
		for p, i := range choices {
			c += options[p][i]
		}
		return c
	}
	// Successors of the base: bump each position to its second choice.
	for p := 0; p < n; p++ {
		if len(options[p]) > 1 {
			next := append([]int(nil), base...)
			next[p] = 1
			push(next, cost(next))
		}
	}
	for pq.Len() > 0 && len(out) < max {
		s := heap.Pop(pq).(probeState)
		out = append(out, s.choices)
		// Successors: advance any position by one step.
		for p := 0; p < n; p++ {
			if s.choices[p]+1 < len(options[p]) {
				next := append([]int(nil), s.choices...)
				next[p]++
				push(next, cost(next))
			}
		}
	}
	return out
}

func fingerprint(choices []int) string {
	b := make([]byte, len(choices))
	for i, c := range choices {
		b[i] = byte(c)
	}
	return string(b)
}

type probeState struct {
	choices []int
	cost    float64
}

type probeHeap []probeState

func (h probeHeap) Len() int            { return len(h) }
func (h probeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h probeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x interface{}) { *h = append(*h, x.(probeState)) }
func (h *probeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
