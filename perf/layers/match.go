package layers

import "erfilter/internal/match"

// matchLayer: the post-filter scorer on one (query, candidate) text pair,
// and the two one-to-one assignments on the edge set of one 4-query
// request with about ten candidates per query.
func matchLayer(p *prepared, out map[string]Value) {
	n := min(len(p.qRaw), len(p.e1Raw))
	out["match.scorer_jw_us"] = perCallUS(3, n, func() {
		for i := 0; i < n; i++ {
			match.ScoreJaroWinkler.Sim(p.qRaw[i], p.e1Raw[i])
		}
	})
	// Four queries that contend for overlapping candidates, so neither
	// assignment is trivial.
	var edges []match.Edge
	for q := 0; q < 4; q++ {
		for c := 0; c < 10; c++ {
			edges = append(edges, match.Edge{Q: q, ID: int64((q*3 + c) % 14), Score: 0.75 + float64((q*7+c*13)%25)/100})
		}
	}
	out["match.bipartite_us"] = perCallUS(5, 1000, func() {
		for i := 0; i < 1000; i++ {
			match.Bipartite(edges)
		}
	})
	out["match.greedy_us"] = perCallUS(5, 1000, func() {
		for i := 0; i < 1000; i++ {
			match.Greedy(edges)
		}
	})
}
