package match

import (
	"cmp"
	"slices"
	"sort"
)

// Edge is one scored (query, entity) pair: query index Q on the left,
// resident entity ID on the right. The decider orders candidate pairs as
// edges under the filter's score, then assigns the thresholded ones
// under its scorer's.
type Edge struct {
	Q     int
	ID    int64
	Score float64
}

// sortEdges orders edges canonically: score descending, then query
// index ascending, then entity id ascending. The comparison budget walks
// this order, and every assignment consumes and produces it, which is
// what makes decisions byte-identical across shard counts: identical
// candidate lists give identical edge lists give identical matchings.
func sortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Q, b.Q), cmp.Compare(a.ID, b.ID))
	})
}

// Greedy resolves the edge list into a one-to-one matching best-first:
// walk the edges in canonical order and keep each edge whose endpoints
// are both still free. The input is not modified.
func Greedy(edges []Edge) []Edge {
	es := append([]Edge(nil), edges...)
	sortEdges(es)
	usedQ := make(map[int]bool, len(es))
	usedID := make(map[int64]bool, len(es))
	out := make([]Edge, 0, len(es))
	for _, e := range es {
		if usedQ[e.Q] || usedID[e.ID] {
			continue
		}
		usedQ[e.Q], usedID[e.ID] = true, true
		out = append(out, e)
	}
	return out
}

// Bipartite resolves the edge list into an exact maximum-weight
// one-to-one matching (vertices may stay unmatched; with all edge
// weights positive the optimum never benefits from leaving a usable
// edge on the table unless an endpoint is contended). The input is not
// modified and the output is in canonical edge order.
//
// The graph induced by a candidate batch is a disjoint union of small
// components — most queries share no candidates — so the edges are
// split into connected components first and the Hungarian algorithm
// runs per component on a dense cost matrix with one zero-cost dummy
// column per row (the "stay unmatched" option). Weights enter as
// negated scores, so the minimum-cost assignment is the maximum-weight
// matching.
func Bipartite(edges []Edge) []Edge {
	if len(edges) == 0 {
		return nil
	}
	es := append([]Edge(nil), edges...)
	sortEdges(es)

	// Union-find over left (query) nodes keyed by query index; right
	// nodes attach through the edges that mention them.
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	byID := map[int64]int{} // entity id -> representative query index
	for _, e := range es {
		if _, ok := parent[e.Q]; !ok {
			parent[e.Q] = e.Q
		}
		if q, ok := byID[e.ID]; ok {
			union(e.Q, q)
		} else {
			byID[e.ID] = e.Q
		}
	}

	groups := map[int][]Edge{}
	var roots []int
	for _, e := range es {
		r := find(e.Q)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], e)
	}
	sort.Ints(roots)

	var out []Edge
	for _, r := range roots {
		out = append(out, assignComponent(groups[r])...)
	}
	sortEdges(out)
	return out
}

// assignComponent runs the exact assignment over one connected
// component, whose edges arrive in canonical order.
func assignComponent(es []Edge) []Edge {
	// Index the component's queries and entity ids densely,
	// preserving canonical order for determinism.
	qIdx := map[int]int{}
	idIdx := map[int64]int{}
	var qs []int
	var ids []int64
	for _, e := range es {
		if _, ok := qIdx[e.Q]; !ok {
			qIdx[e.Q] = len(qs)
			qs = append(qs, e.Q)
		}
		if _, ok := idIdx[e.ID]; !ok {
			idIdx[e.ID] = len(ids)
			ids = append(ids, e.ID)
		}
	}
	n, m := len(qs), len(ids)
	if n == 1 {
		// Single query: the best edge wins outright (es is sorted).
		return []Edge{es[0]}
	}

	// Dense cost matrix: columns 0..m-1 are the entity ids, columns
	// m..m+n-1 are per-row dummies (row i may take only dummy m+i, at
	// cost 0 — the unmatched option). Non-edges cost a large finite
	// penalty so the potentials arithmetic stays exact enough.
	const nonEdge = 1e9
	cols := m + n
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, cols)
		for j := range cost[i] {
			cost[i][j] = nonEdge
		}
		cost[i][m+i] = 0
	}
	best := make([][]float64, n) // dedupe parallel edges: keep the best
	for i := range best {
		best[i] = make([]float64, m)
		for j := range best[i] {
			best[i][j] = -1
		}
	}
	for _, e := range es {
		i, j := qIdx[e.Q], idIdx[e.ID]
		if e.Score > best[i][j] {
			best[i][j] = e.Score
			cost[i][j] = -e.Score
		}
	}

	match := hungarian(cost)

	var out []Edge
	for i, j := range match {
		if j >= 0 && j < m && best[i][j] >= 0 {
			out = append(out, Edge{Q: qs[i], ID: ids[j], Score: best[i][j]})
		}
	}
	return out
}

// hungarian solves the rectangular assignment problem (rows n <= cols)
// by the standard potentials formulation, returning the column chosen
// for each row. O(n^2 * cols) — components are small, so this is cheap.
func hungarian(cost [][]float64) []int {
	n := len(cost)
	cols := len(cost[0])
	const inf = 1e18
	u := make([]float64, n+1)
	v := make([]float64, cols+1)
	p := make([]int, cols+1)   // p[j] = row assigned to column j (1-based; 0 = none)
	way := make([]int, cols+1) // back-pointers of the augmenting path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, cols+1)
		used := make([]bool, cols+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, -1
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for j := 1; j <= cols; j++ {
		if p[j] > 0 {
			match[p[j]-1] = j - 1
		}
	}
	return match
}
