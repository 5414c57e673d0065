// Package text provides the textual preprocessing substrate shared by all
// filtering methods: tokenization, character n-grams, q-gram / suffix /
// substring signature extraction, multiset ("counter") token handling,
// stop-word removal, Porter stemming, and the ten representation models of
// the paper's Table IV (T1G, T1GM, C2G ... C5GM).
package text

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Tokens are windows: Tokenize, NGrams and Model.Tokens return substrings
// of their input or of one new string per call, not a string per token,
// so a token keeps its whole text reachable. Whatever retains a token
// beyond its text — a vocabulary, a dictionary — stores a strings.Clone of
// it; code that only reads tokens needs no copy.

// Tokenize splits a textual value into lower-cased tokens on any
// non-alphanumeric character. This is the "whitespace tokenization" of
// Standard Blocking generalized to punctuation, matching the behaviour of
// the JedAI toolkit the paper builds on.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// joinWords returns strings.Join(Tokenize(s), " "), built in one pass
// over a pooled buffer: each rune lower-cased as strings.ToLower maps it,
// words split on what is then not a letter or a digit — invalid UTF-8
// included, which strings.ToLower makes U+FFFD. edit, when non-nil, sees
// each word as b[start:] and returns b rewritten; returning b[:start]
// drops the word together with its separator.
func joinWords(s string, edit func(b []byte, start int) []byte) string {
	sc := scratchPool.Get().(*scratch)
	b := sc.buf[:0]
	for i := 0; i < len(s); {
		mark := len(b)
		if mark > 0 {
			b = append(b, ' ')
		}
		start := len(b)
		for i < len(s) { // separators, one word, the separator after it
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				b = utf8.AppendRune(b, r)
			} else if len(b) > start {
				break
			}
		}
		if len(b) > start && edit != nil {
			b = edit(b, start)
		}
		if len(b) == start {
			b = b[:mark]
		}
	}
	out := string(b)
	sc.buf = b
	sc.release()
	return out
}

// scratch is the working memory of one joinWords or dedup call, pooled.
// A scratch that grew past maxScratch bytes is dropped, not pooled, so one
// huge attribute cannot pin its buffers for ever.
type scratch struct {
	buf   []byte
	slots []int32
}

const maxScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) release() {
	if cap(sc.buf) <= maxScratch && 4*cap(sc.slots) <= maxScratch {
		scratchPool.Put(sc)
	}
}

// NGrams returns the character n-grams of s (as runes). Strings shorter
// than n yield the string itself as a single gram (if non-empty), matching
// the convention of q-gram blocking implementations. The grams are windows
// of s, or of its copy with every invalid byte read as U+FFFD.
func NGrams(s string, n int) []string {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	runes := utf8.RuneCountInString(s)
	if runes == 0 {
		return nil
	}
	if runes <= n {
		return []string{s}
	}
	out := make([]string, 0, runes-n+1)
	start, k := 0, 0
	for end := range s {
		if k++; k > n { // s[start:end] is the n runes before the k-th
			out = append(out, s[start:end])
			_, size := utf8.DecodeRuneInString(s[start:])
			start += size
		}
	}
	return append(out, s[start:])
}

// Suffixes returns the suffixes of s with at least minLen characters,
// including s itself. Used by Suffix Arrays Blocking.
func Suffixes(s string, minLen int) []string {
	r := []rune(s)
	if len(r) < minLen {
		return nil
	}
	out := make([]string, 0, len(r)-minLen+1)
	for i := 0; i+minLen <= len(r); i++ {
		out = append(out, string(r[i:]))
	}
	return out
}

// Substrings returns all substrings of s with at least minLen characters,
// including s itself. Used by Extended Suffix Arrays Blocking.
func Substrings(s string, minLen int) []string {
	r := []rune(s)
	if len(r) < minLen {
		return nil
	}
	var out []string
	for i := 0; i < len(r); i++ {
		for j := i + minLen; j <= len(r); j++ {
			out = append(out, string(r[i:j]))
		}
	}
	return out
}

// QGramCombinations implements the signature construction of Extended
// Q-Grams Blocking: given the q-grams g of one token, it concatenates every
// combination of at least L = max(1, floor(k*T)) q-grams, where k = len(g)
// and T in [0,1). Combinations preserve the original q-gram order and are
// joined with "_". maxGrams caps k to keep the 2^k enumeration bounded; the
// grams beyond the cap are ignored (long tokens contribute their prefix
// grams, which is the JedAI behaviour for its default cap).
func QGramCombinations(grams []string, t float64, maxGrams int) []string {
	k := len(grams)
	if k == 0 {
		return nil
	}
	if k > maxGrams {
		grams = grams[:maxGrams]
		k = maxGrams
	}
	l := int(float64(k) * t)
	if l < 1 {
		l = 1
	}
	var out []string
	// Enumerate all non-empty subsets of the (capped) gram list and keep
	// those with at least l elements.
	for mask := 1; mask < 1<<k; mask++ {
		if popcount(mask) < l {
			continue
		}
		var sb strings.Builder
		for i := 0; i < k; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte('_')
			}
			sb.WriteString(grams[i])
		}
		out = append(out, sb.String())
	}
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// CounterTokens converts a token multiset into a set by attaching an
// occurrence counter to each repeated token: {a, a, b} -> {a#1, a#2, b#1}.
// This is the de-duplication scheme of Table IV's multiset representation
// models (T1GM, C2GM, ...).
func CounterTokens(tokens []string) []string {
	counts := make(map[string]int, len(tokens))
	out := make([]string, len(tokens))
	for i, tok := range tokens {
		counts[tok]++
		out[i] = tok + "#" + strconv.Itoa(counts[tok])
	}
	return out
}

// Dedup returns the distinct tokens of the input, preserving first-seen
// order.
func Dedup(tokens []string) []string {
	return dedup(slices.Clone(tokens))
}

var dedupSeed = maphash.MakeSeed()

// dedup is Dedup in place: it moves the distinct tokens of toks to its
// front and returns that prefix. The set is an open-addressed table of
// 1-based indexes into the prefix, so pooled scratch holds no string.
func dedup(toks []string) []string {
	sc := scratchPool.Get().(*scratch)
	size := 2 << bits.Len(uint(len(toks))) // at most half full
	sc.slots = slices.Grow(sc.slots[:0], size)[:size]
	clear(sc.slots)
	n := 0
	for _, tok := range toks {
		for h := maphash.String(dedupSeed, tok); ; h++ {
			slot := &sc.slots[h&uint64(size-1)]
			if *slot == 0 {
				*slot, toks[n] = int32(n+1), tok
				n++
				break
			}
			if toks[*slot-1] == tok {
				break
			}
		}
	}
	sc.release()
	return toks[:n]
}
