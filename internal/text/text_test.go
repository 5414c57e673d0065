package text

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Joe Biden", []string{"joe", "biden"}},
		{"  A-b_c 42! ", []string{"a", "b", "c", "42"}},
		{"", nil},
		{"...", nil},
		{" \t-- __ !! \n", nil},
		{"ABT CD2400", []string{"abt", "cd2400"}},
		// No camelCase split: a case change is not a boundary, only a
		// non-alphanumeric rune is — the JedAI-compatible behaviour the
		// paper's blocking numbers were produced with.
		{"getUserToken", []string{"getusertoken"}},
		{"APIKey", []string{"apikey"}},
		{"my-cool.func_name", []string{"my", "cool", "func", "name"}},
		// Digits stay inside the word: a model number is one token.
		{"handler404Response", []string{"handler404response"}},
		{"CD2400", []string{"cd2400"}},
		// Letters are Unicode letters: accented and CJK words stay whole.
		{"RÉSUMÉ résumé", []string{"résumé", "résumé"}},
		{"履歴書、東京", []string{"履歴書", "東京"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("biden", 3)
	want := []string{"bid", "ide", "den"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NGrams(biden,3) = %v, want %v", got, want)
	}
	if got := NGrams("ab", 3); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("short string should yield itself, got %v", got)
	}
	if got := NGrams("", 3); got != nil {
		t.Fatalf("empty string should yield nil, got %v", got)
	}
	// Unicode safety.
	if got := NGrams("日本語х", 2); len(got) != 3 {
		t.Fatalf("rune-based n-grams expected 3 grams, got %v", got)
	}
}

// TestPaperExample reproduces the worked "Joe Biden" example of Section IV-B.
func TestPaperExample(t *testing.T) {
	// Standard Blocking keys: {joe, biden}.
	std := Tokenize("Joe Biden")
	if !reflect.DeepEqual(std, []string{"joe", "biden"}) {
		t.Fatalf("standard keys = %v", std)
	}

	// Q-Grams Blocking with q=3: {joe, bid, ide, den}.
	var qg []string
	for _, tok := range std {
		qg = append(qg, NGrams(tok, 3)...)
	}
	sort.Strings(qg)
	want := []string{"bid", "den", "ide", "joe"}
	if !reflect.DeepEqual(qg, want) {
		t.Fatalf("q-gram keys = %v, want %v", qg, want)
	}

	// Extended Q-Grams with T=0.9: joe has k=1 gram -> L=max(1,0)=1 -> {joe};
	// biden has k=3 grams -> L=max(1,floor(2.7))=2 -> the 4 combinations of
	// at least two of {bid,ide,den}. Total 5 keys.
	var eqg []string
	for _, tok := range std {
		eqg = append(eqg, QGramCombinations(NGrams(tok, 3), 0.9, 15)...)
	}
	sort.Strings(eqg)
	wantE := []string{"bid_den", "bid_ide", "bid_ide_den", "ide_den", "joe"}
	if !reflect.DeepEqual(eqg, wantE) {
		t.Fatalf("extended q-gram keys = %v, want %v", eqg, wantE)
	}

	// Suffix Arrays with lmin=3: {joe, biden, iden, den}.
	var sa []string
	for _, tok := range std {
		sa = append(sa, Suffixes(tok, 3)...)
	}
	sort.Strings(sa)
	wantS := []string{"biden", "den", "iden", "joe"}
	if !reflect.DeepEqual(sa, wantS) {
		t.Fatalf("suffix keys = %v, want %v", sa, wantS)
	}

	// Extended Suffix Arrays with lmin=3: all substrings of length >= 3:
	// {joe, biden, bide, iden, bid, ide, den} = 7 keys.
	var esa []string
	for _, tok := range std {
		esa = append(esa, Substrings(tok, 3)...)
	}
	if len(esa) != 7 {
		t.Fatalf("extended suffix keys = %v (want 7 keys)", esa)
	}
	sort.Strings(esa)
	wantES := []string{"bid", "bide", "biden", "den", "ide", "iden", "joe"}
	if !reflect.DeepEqual(esa, wantES) {
		t.Fatalf("extended suffix keys = %v, want %v", esa, wantES)
	}
}

func TestQGramCombinationsLowThreshold(t *testing.T) {
	// With T=0 every non-empty subset qualifies (L=1): 2^3-1 = 7 combos.
	got := QGramCombinations([]string{"a", "b", "c"}, 0, 15)
	if len(got) != 7 {
		t.Fatalf("expected 7 combinations, got %d: %v", len(got), got)
	}
}

func TestQGramCombinationsCap(t *testing.T) {
	grams := make([]string, 30)
	for i := range grams {
		grams[i] = strings.Repeat("x", 3)
	}
	got := QGramCombinations(grams, 0.95, 10)
	if len(got) == 0 || len(got) > 1<<10 {
		t.Fatalf("cap not honoured, got %d combos", len(got))
	}
}

func TestCounterTokens(t *testing.T) {
	got := CounterTokens([]string{"a", "a", "b"})
	want := []string{"a#1", "a#2", "b#1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CounterTokens = %v, want %v", got, want)
	}
}

func TestDedup(t *testing.T) {
	got := Dedup([]string{"b", "a", "b", "c", "a"})
	want := []string{"b", "a", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Dedup = %v, want %v", got, want)
	}
}

func TestSubstringsAndSuffixesAgree(t *testing.T) {
	// Every suffix is a substring.
	f := func(s string, minLen uint8) bool {
		m := int(minLen%5) + 1
		subs := map[string]bool{}
		for _, x := range Substrings(s, m) {
			subs[x] = true
		}
		for _, x := range Suffixes(s, m) {
			if !subs[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelNames(t *testing.T) {
	names := []string{"T1G", "T1GM", "C2G", "C2GM", "C3G", "C3GM", "C4G", "C4GM", "C5G", "C5GM"}
	ms := Models()
	if len(ms) != len(names) {
		t.Fatalf("Models() returned %d models", len(ms))
	}
	for i, m := range ms {
		if m.String() != names[i] {
			t.Errorf("model %d = %s, want %s", i, m, names[i])
		}
		parsed, err := ParseModel(names[i])
		if err != nil {
			t.Fatalf("ParseModel(%s): %v", names[i], err)
		}
		if parsed != m {
			t.Errorf("ParseModel(%s) = %+v, want %+v", names[i], parsed, m)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("ParseModel should reject unknown names")
	}
}

func TestModelTokens(t *testing.T) {
	cases := []struct {
		model string
		in    string
		want  []string
	}{
		{"T1G", "red red fox", []string{"red", "fox"}},
		{"T1GM", "red red fox", []string{"red#1", "red#2", "fox#1"}},
		{"T1G", "a a b", []string{"a", "b"}},
		{"T1GM", "a a b", []string{"a#1", "a#2", "b#1"}},
		{"T1G", "getUserToken APIKey", []string{"getusertoken", "apikey"}},
		{"C2G", "ab cd", []string{"ab", "b ", " c", "cd"}},
		{"C2GM", "aaa", []string{"aa#1", "aa#2"}},
		// A value shorter than n — or exactly n long — is its own one gram.
		{"C3G", "ab", []string{"ab"}},
		{"C3G", "abc", []string{"abc"}},
		{"C5GM", "ab", []string{"ab#1"}},
		// Grams span the word boundary, which any run of separators
		// collapses to one space.
		{"C3G", "ab--cd", []string{"ab ", "b c", " cd"}},
		{"C3G", " ab \t cd!", []string{"ab ", "b c", " cd"}},
		{"C3G", "CD2400", []string{"cd2", "d24", "240", "400"}},
		// n counts runes, not bytes.
		{"C3G", "résumé", []string{"rés", "ésu", "sum", "umé"}},
		{"C3G", "履歴", []string{"履歴"}},
		{"C3G", "履歴書x", []string{"履歴書", "歴書x"}},
		{"C2G", "履歴 書", []string{"履歴", "歴 ", " 書"}},
		// Nothing alphanumeric, nothing to index — under every model.
		{"T1G", "", nil}, {"T1GM", "", nil}, {"C3G", "", nil}, {"C3GM", "", nil},
		{"T1G", "-- !!", nil}, {"T1GM", "-- !!", nil}, {"C3G", "-- !!", nil}, {"C3GM", "-- !!", nil},
	}
	for _, c := range cases {
		m, err := ParseModel(c.model)
		if err != nil {
			t.Fatal(err)
		}
		got := m.Tokens(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s.Tokens(%q) = %q, want %q", c.model, c.in, got, c.want)
		}
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "The"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"camera", "nikon", "resolution"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestClean(t *testing.T) {
	got := Clean("The running foxes are jumping!")
	// stop-words removed, remaining tokens stemmed
	want := "run fox jump"
	if got != want {
		t.Fatalf("Clean = %q, want %q", got, want)
	}
	if got := Clean("the and of"); got != "" {
		t.Fatalf("all-stopword input should clean to empty, got %q", got)
	}
}

// TestPorterGolden checks the stemmer against reference pairs from Porter's
// published vocabulary.
func TestPorterGolden(t *testing.T) {
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnShort(t *testing.T) {
	for _, w := range []string{"a", "an", "it", "42", "Δδ"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemNeverPanicsAndNeverGrows(t *testing.T) {
	f := func(s string) bool {
		w := strings.ToLower(s)
		return len(Stem(w)) <= len(w)+1 // step1b can append an 'e'
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
