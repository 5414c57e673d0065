package text

import (
	"fmt"
	"strings"
)

// Model is one of the ten representation models of Table IV: whitespace
// tokens (T1G) or character n-grams (C2G..C5G), each as a set or as a
// multiset (the M-suffixed variants, de-duplicated with counters).
type Model struct {
	// N is 1 for whitespace tokens, or the n-gram length (2..5) for
	// character n-grams.
	N int
	// Multiset keeps repeated tokens by attaching occurrence counters.
	Multiset bool
}

// Models enumerates all ten representation models in the order of Table IV:
// T1G, T1GM, C2G, C2GM, C3G, C3GM, C4G, C4GM, C5G, C5GM.
func Models() []Model {
	var out []Model
	for _, n := range []int{1, 2, 3, 4, 5} {
		out = append(out, Model{N: n}, Model{N: n, Multiset: true})
	}
	return out
}

// ParseModel converts a Table IV model name (e.g. "C5GM", "T1G") to a Model.
func ParseModel(name string) (Model, error) {
	var m Model
	s := strings.ToUpper(strings.TrimSpace(name))
	if strings.HasSuffix(s, "M") {
		m.Multiset = true
		s = strings.TrimSuffix(s, "M")
	}
	switch s {
	case "T1G":
		m.N = 1
	case "C2G", "C3G", "C4G", "C5G":
		m.N = int(s[1] - '0')
	default:
		return Model{}, fmt.Errorf("text: unknown representation model %q", name)
	}
	return m, nil
}

// String returns the Table IV name of the model.
func (m Model) String() string {
	var base string
	if m.N == 1 {
		base = "T1G"
	} else {
		base = fmt.Sprintf("C%dG", m.N)
	}
	if m.Multiset {
		return base + "M"
	}
	return base
}

// Tokens extracts the model's token set (or counter-expanded multiset) from
// a textual value. For n-gram models the grams are taken over the whole
// lower-cased string with whitespace runs collapsed to single spaces, so
// cross-token grams carry word-boundary information, as in set-similarity
// join practice. The grams are windows of that one normalized string.
func (m Model) Tokens(s string) []string {
	var toks []string
	if m.N == 1 {
		toks = Tokenize(s)
	} else {
		toks = NGrams(joinWords(s, nil), m.N)
	}
	if m.Multiset {
		return CounterTokens(toks)
	}
	return dedup(toks)
}
