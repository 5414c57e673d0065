package layers

import (
	"time"

	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// sparseLayer: the incremental ScanCount index over knnj_point's E1 —
// the add and freeze a write pays, and the top-k and range probes that
// are about nine tenths of a sparse read.
func sparseLayer(p *prepared, out map[string]Value) {
	c3g := text.Model{N: 3}
	dict := map[string]int32{}
	encode := func(s string, grow bool) []int32 {
		toks := c3g.Tokens(s)
		ids := make([]int32, len(toks))
		for i, t := range toks {
			id, ok := dict[t]
			if !ok {
				id = int32(len(dict)) // unseen query tokens share the id past the dictionary
				if grow {
					dict[t] = id
				}
			}
			ids[i] = id
		}
		return ids
	}
	sets := make([][]int32, len(p.e1Clean))
	for i, s := range p.e1Clean {
		sets[i] = encode(s, true)
	}
	idx := sparse.NewIncIndex()
	begin := time.Now()
	for i, set := range sets {
		if err := idx.Add(int64(i), set); err != nil {
			panic(err)
		}
	}
	out["sparse.add_us"] = Value{V: float64(time.Since(begin).Nanoseconds()) / 1e3 / float64(len(sets)), N: len(sets)}

	// Freeze after a mutation is what every acknowledged write pays.
	next := int64(len(sets))
	out["sparse.freeze_us"] = perCallUS(15, 1, func() {
		idx.Remove(next - 1)
		idx.Add(next, sets[0])
		next++
		idx.Freeze()
	})

	snap := idx.Freeze()
	queries := make([][]int32, min(200, len(p.qClean))) // 200 probes of ~3 ms keep the traced run short
	for i := range queries {
		queries[i] = encode(p.qClean[i], false)
	}
	var sc sparse.Scratch
	found := 0
	knn := func() {
		found = 0
		for _, q := range queries {
			found += len(snap.KNNQuery(q, sparse.Cosine, 3, &sc))
		}
	}
	out["sparse.knn_query_us"] = perCallUS(3, len(queries), knn)
	out["sparse.candidates_per_query"] = Value{V: float64(found) / float64(len(queries)), N: len(queries)}
	out["sparse.knn_query_allocs"], out["sparse.knn_query_bytes"] = allocsPerCall(len(queries), knn)
	out["sparse.range_query_us"] = perCallUS(3, len(queries), func() {
		for _, q := range queries {
			snap.RangeQuery(q, sparse.Cosine, 0.25, &sc)
		}
	})
}
