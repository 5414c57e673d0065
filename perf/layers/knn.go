package layers

import (
	"time"

	"erfilter/internal/knn"
	"erfilter/internal/vector"
)

// knnLayer: the incremental HNSW graph over 300-d embeddings — the
// insert that is most of hnsw_point's set-up and writes, the graph walk
// of its reads, and the exact scan its "approx": false tenth runs. The
// graph holds 500 vectors to keep the traced run short; an insert into
// hnsw_point's 2 000 costs more.
func knnLayer(p *prepared, out map[string]Value) {
	emb := vector.NewEmbedder(vector.Dim)
	vecs := emb.Texts(p.e1Clean[:min(500, len(p.e1Clean))])
	queries := emb.Texts(p.qClean[:min(300, len(p.qClean))])

	g := knn.NewIncHNSW(knn.DotProduct, knn.HNSWParams{}) // erserve -method flat ranks by dot product
	begin := time.Now()
	for i, v := range vecs {
		if err := g.Add(int64(i), v); err != nil {
			panic(err)
		}
	}
	out["knn.hnsw_add_us"] = Value{V: float64(time.Since(begin).Nanoseconds()) / 1e3 / float64(len(vecs)), N: len(vecs)}

	snap := g.Freeze()
	walk := func() {
		for _, q := range queries {
			snap.Search(q, 10)
		}
	}
	out["knn.hnsw_search_us"] = perCallUS(5, len(queries), walk)
	out["knn.hnsw_search_allocs"], _ = allocsPerCall(len(queries), walk)
	out["knn.flat_search_us"] = perCallUS(3, len(queries), func() {
		for _, q := range queries {
			snap.SearchExact(q, 10)
		}
	})

	hit, want := 0, 0
	for _, q := range queries {
		exact := map[int64]bool{}
		for _, r := range snap.SearchExact(q, 10) {
			exact[r.ID] = true
		}
		want += len(exact)
		for _, r := range snap.Search(q, 10) {
			if exact[r.ID] {
				hit++
			}
		}
	}
	out["knn.hnsw_recall_at_10"] = Value{V: float64(hit) / float64(max(1, want)), N: len(queries)}
}
