package text

// Stem reduces an English word to its base form using the Porter stemming
// algorithm (Porter, 1980), the stemmer behind nltk's default pipeline that
// the paper uses for cleaning. The input is expected lower-case; non-ASCII
// or very short words are returned unchanged.
func Stem(word string) string {
	if w := stemInto([]byte(word)); string(w) != word {
		return string(w)
	}
	return word
}

// stemInto stems w in place and returns the stem, a prefix of w's memory:
// no step lengthens what the steps before it cut. Like Stem it leaves
// words of non-ASCII, upper-case, digits or under three letters alone.
func stemInto(w []byte) []byte {
	if len(w) <= 2 {
		return w
	}
	for _, c := range w {
		if c < 'a' || c > 'z' {
			return w
		}
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	return step5b(w)
}

// isCons reports whether w[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes m, the number of VC (vowel-consonant) sequences of the
// stem w.
func measure(w []byte) int {
	n, i := 0, 0
	for i < len(w) && isCons(w, i) {
		i++
	}
	for i < len(w) {
		for i < len(w) && !isCons(w, i) {
			i++
		}
		if i >= len(w) {
			break
		}
		n++
		for i < len(w) && isCons(w, i) {
			i++
		}
	}
	return n
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant (e.g. -tt).
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y (the *o condition of Porter's paper).
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix compares the last bytes first: nearly every rule tried fails
// there, without a call into the runtime's string compare.
func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) || w[len(w)-1] != s[len(s)-1] {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix swaps suffix from for to if the measure of the remaining
// stem is at least minM. It reports whether from matched at all (regardless
// of whether the replacement was applied). The swap is in place: every to
// is no longer than its from.
func replaceSuffix(w []byte, from, to string, minM int) ([]byte, bool) {
	if !hasSuffix(w, from) {
		return w, false
	}
	stem := w[:len(w)-len(from)]
	if measure(stem) > minM-1 {
		return append(stem, to...), true
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	applied := false
	if hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		applied = true
	} else if hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleCons(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		return append(w[:len(w)-1], 'i')
	}
	return w
}

var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if out, matched := replaceSuffix(w, r.from, r.to, 1); matched {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if out, matched := replaceSuffix(w, r.from, r.to, 1); matched {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" && len(stem) > 0 {
			last := stem[len(stem)-1]
			if last != 's' && last != 't' {
				return w
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "l") {
		return w[:len(w)-1]
	}
	return w
}
