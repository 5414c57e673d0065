package layers

import "erfilter/internal/text"

// textLayer: cleaning (stop words + stemming) and C3G tokenisation of one
// query text — the encode step of every sparse request, and most of a
// sparse daemon's bulk load.
func textLayer(p *prepared, out map[string]Value) {
	out["text.clean_us"] = perCallUS(5, len(p.qRaw), func() {
		for _, s := range p.qRaw {
			text.Clean(s)
		}
	})
	c3g := text.Model{N: 3}
	tokens := 0
	out["text.tokens_c3g_us"] = perCallUS(5, len(p.qClean), func() {
		tokens = 0
		for _, s := range p.qClean {
			tokens += len(c3g.Tokens(s))
		}
	})
	out["text.tokens_per_text"] = Value{V: float64(tokens) / float64(len(p.qClean)), N: len(p.qClean)}
}
