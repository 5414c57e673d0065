package sparse

import "erfilter/internal/entity"

// EpsJoin performs the range join (ε-Join): it pairs every entity of E2
// with all entities of E1 whose similarity is at least eps. The result is
// independent of which side is indexed, so no RVS parameter exists.
func EpsJoin(c *Corpus, m Measure, eps float64) []entity.Pair {
	idx := NewIndex(c.Sets1, c.NumTokens)
	var out []entity.Pair
	for e2, q := range c.Sets2 {
		for _, n := range idx.RangeQuery(q, m, eps) {
			out = append(out, entity.Pair{Left: int32(n.ID), Right: int32(e2)})
		}
	}
	return out
}
