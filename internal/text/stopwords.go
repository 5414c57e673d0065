package text

import (
	"strings"

	"erfilter/internal/parallel"
)

// stopwords is the English stop-word list used by the cleaning step of the
// NN workflow (Figure 2). It mirrors the nltk English list the paper uses.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their
theirs themselves what which who whom this that these those am is are was
were be been being have has had having do does did doing a an the and but
if or because as until while of at by for with about against between into
through during before after above below to from up down in out on off over
under again further then once here there when where why how all any both
each few more most other some such no nor not only own same so than too
very s t can will just don should now d ll m o re ve y ain aren couldn
didn doesn hadn hasn haven isn ma mightn mustn needn shan shouldn wasn
weren won wouldn`) {
		stopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the lower-cased token is an English stop-word.
func IsStopword(tok string) bool {
	_, ok := stopwords[strings.ToLower(tok)]
	return ok
}

// Clean applies the optional pre-processing of the NN workflow (Figure 2):
// it lower-cases, tokenizes, removes stop-words and stems every remaining
// token with the Porter stemmer, returning the rebuilt string.
func Clean(s string) string { return joinWords(s, cleanWord) }

// cleanWord drops the word b[start:] if it is a stop-word and stems it in
// place otherwise.
func cleanWord(b []byte, start int) []byte {
	if _, stop := stopwords[string(b[start:])]; stop {
		return b[:start]
	}
	return append(b[:start], stemInto(b[start:])...)
}

// CleanAll applies Clean to every element of texts, returning a new slice.
// Clean is pure, so contiguous ranges of the slice are cleaned on
// GOMAXPROCS workers, each writing its own elements of the result.
func CleanAll(texts []string) []string {
	out := make([]string, len(texts))
	parallel.Ranges(len(texts), func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			out[i] = Clean(texts[i])
		}
		return struct{}{}
	})
	return out
}
