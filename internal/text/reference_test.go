package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The bodies Model.Tokens, NGrams, Clean, Stem and Dedup had before they
// were rewritten to cut windows of one buffer: a string per gram, a map
// per Dedup, a token slice and a Join per Clean. They are the oracles the
// rewrites must equal on every input.

func TokensReference(m Model, s string) []string {
	var toks []string
	if m.N == 1 {
		toks = Tokenize(s)
	} else {
		norm := strings.Join(Tokenize(s), " ")
		toks = NGramsReference(norm, m.N)
	}
	if m.Multiset {
		return CounterTokens(toks)
	}
	return DedupReference(toks)
}

func NGramsReference(s string, n int) []string {
	r := []rune(s)
	if len(r) == 0 {
		return nil
	}
	if len(r) <= n {
		return []string{string(r)}
	}
	out := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		out = append(out, string(r[i:i+n]))
	}
	return out
}

func DedupReference(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0:0]
	for _, tok := range tokens {
		if _, ok := seen[tok]; ok {
			continue
		}
		seen[tok] = struct{}{}
		out = append(out, tok)
	}
	return out
}

func CleanReference(s string) string {
	toks := Tokenize(s)
	out := make([]string, 0, len(toks))
	for _, tok := range toks {
		if IsStopword(tok) {
			continue
		}
		out = append(out, StemReference(tok))
	}
	return strings.Join(out, " ")
}

func StemReference(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return word
		}
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// productText is a product title of the benchmark corpus's shape: mixed
// case, model numbers, punctuation.
const productText = "Canon PowerShot SD1100IS 8MP Digital Camera with 3x Optical Image Stabilized Zoom (Blue)"

// fixedTexts are the edge cases every rewrite is held to beside the
// random ones: nothing, only separators, invalid UTF-8, the runes whose
// case mappings change their encoded length or have no single-rune
// lower case, CJK, digits, shorter than any n, and 16 KiB.
var fixedTexts = []string{
	"", " \t\n  ", "--!!..", "a\xffb", "\xff", "\xc3", "\xed\xa0\x80x", "a�b",
	"İ", "ẞ", "Σ", "İSTANBUL ẞTRASSE ΣΊΣΥΦΟΣ", "Kelvin K", "ȺȾ ⱥⱦ",
	"履歴書、東京タワー", "履歴", "0123456789", "42", "a", "ab", "abc", "  ab  ",
	"The running foxes are jumping!", "the and of", "THE AND OF", "relational caresses ponies",
	productText, strings.Repeat(productText+" ", 16<<10/(len(productText)+1)),
}

// wordyPieces are what wordyText strings together, so random texts reach
// stop-words, stemming and every case mapping, not only random runes.
var wordyPieces = []string{
	"the", "The", "AND", "of", "running", "Running", "CAMERAS", "relational", "caresses",
	"hopping", "sky", "happy", "digitizer", "résumé", "RÉSUMÉ", "İ", "ẞ", "Σ", "ς", "履歴",
	"42", "x9", "sd1100is", "a\xffb", "\xe2\x82", "K", " ", " ", "  ", "--", "\t", ".", "_", "!",
}

func wordyText(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(24); n > 0; n-- {
		b.WriteString(wordyPieces[r.Intn(len(wordyPieces))])
	}
	return b.String()
}

// quickTexts runs check over quick's random strings, wordyText strings and
// fixedTexts.
func quickTexts(t *testing.T, check func(s string) bool) {
	t.Helper()
	for _, s := range fixedTexts {
		if !check(s) {
			t.Errorf("fixed input %q", s)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	wordy := &quick.Config{MaxCount: 2000, Values: func(v []reflect.Value, r *rand.Rand) {
		v[0] = reflect.ValueOf(wordyText(r))
	}}
	if err := quick.Check(check, wordy); err != nil {
		t.Error(err)
	}
}

func TestTokensMatchReference(t *testing.T) {
	for _, m := range Models() {
		t.Run(m.String(), func(t *testing.T) {
			quickTexts(t, func(s string) bool {
				return reflect.DeepEqual(m.Tokens(s), TokensReference(m, s))
			})
		})
	}
}

func TestNGramsMatchReference(t *testing.T) {
	for n := 1; n <= 6; n++ {
		quickTexts(t, func(s string) bool {
			return reflect.DeepEqual(NGrams(s, n), NGramsReference(s, n))
		})
	}
	// Dedup, which Q-gram blocking runs over NGrams' windows.
	quickTexts(t, func(s string) bool {
		toks := strings.Fields(s)
		return reflect.DeepEqual(Dedup(toks), DedupReference(toks))
	})
}

func TestCleanMatchesReference(t *testing.T) {
	quickTexts(t, func(s string) bool {
		for _, w := range Tokenize(s) {
			if Stem(w) != StemReference(w) {
				return false
			}
		}
		return Clean(s) == CleanReference(s)
	})
}

// fuzzSeeds are fixedTexts but the 16 KiB one: the fuzzer minimizes
// every input that finds new coverage, and a 16 KiB one takes it minutes.
func fuzzSeeds(f *testing.F) {
	for _, s := range fixedTexts {
		if len(s) <= 1<<10 {
			f.Add(s)
		}
	}
}

func FuzzTokensMatchReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		for _, m := range Models() {
			if got, want := m.Tokens(s), TokensReference(m, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s.Tokens(%q) = %q, reference %q", m, s, got, want)
			}
		}
		for n := 1; n <= 5; n++ {
			if got, want := NGrams(s, n), NGramsReference(s, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("NGrams(%q, %d) = %q, reference %q", s, n, got, want)
			}
		}
	})
}

func FuzzCleanMatchesReference(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Clean(s), CleanReference(s); got != want {
			t.Fatalf("Clean(%q) = %q, reference %q", s, got, want)
		}
		if got, want := Stem(s), StemReference(s); got != want {
			t.Fatalf("Stem(%q) = %q, reference %q", s, got, want)
		}
	})
}
