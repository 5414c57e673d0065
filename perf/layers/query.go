package layers

import "erfilter/internal/query"

// queryLayer: parsing the workload's predicate (once per request) and
// evaluating it against one candidate's stored attributes (once per
// candidate below the top-k cut).
func queryLayer(p *prepared, out map[string]Value) {
	out["query.parse_us"] = perCallUS(5, 1000, func() {
		for i := 0; i < 1000; i++ {
			if _, err := query.Parse(p.in.Where); err != nil {
				panic(err)
			}
		}
	})
	q, _ := query.Parse(p.in.Where)
	out["query.match_us"] = perCallUS(5, len(p.in.E1), func() {
		for _, attrs := range p.in.E1 {
			q.Match(attrs)
		}
	})
}
