package layers

import "erfilter/internal/vector"

// vectorLayer: the 300-d tuple embedding of one query text, with an
// embedder that has never seen the words (bulk load, first requests) and
// with one that has (steady-state serving from the pooled embedders).
func vectorLayer(p *prepared, out map[string]Value) {
	texts := p.qClean[:min(300, len(p.qClean))]
	out["vector.embed_cold_us"] = perCallUS(3, len(texts), func() {
		vector.NewEmbedder(vector.Dim).Texts(texts)
	})
	warm := vector.NewEmbedder(vector.Dim)
	warm.Texts(texts)
	out["vector.embed_warm_us"] = perCallUS(5, len(texts), func() { warm.Texts(texts) })
}
