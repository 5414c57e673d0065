package text

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestTextAllocations pins the allocations of the preprocessing kernels
// on one product text: C3G Tokens is the normalized string and the gram
// slice (the reference: 100, a string per gram and a Dedup map), Clean
// its result string (reference: 13), NGrams the gram slice. Skipped under
// -race, whose sync.Pool drops Puts at random.
func TestTextAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	c3g := Model{N: 3}
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"C3G Tokens", 2, func() { c3g.Tokens(productText) }},
		{"Clean", 1, func() { Clean(productText) }},
		{"NGrams", 1, func() { NGrams("canon powershot sd1100is", 3) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocations per call, want <= %.0f", c.name, got, c.max)
		}
	}
}

// TestTokensScratchBounded: a 1 MiB text grows the scratch far past
// maxScratch, and that scratch is dropped, not pooled.
func TestTokensScratchBounded(t *testing.T) {
	var b strings.Builder
	for i := 0; b.Len() < 1<<20; i++ {
		b.WriteString(strconv.FormatInt(int64(i)*7919, 36) + " ")
	}
	big := b.String() // 150 919 distinct words, 50 472 distinct 3-grams
	for _, m := range Models() {
		m.Tokens(big)
	}
	Clean(big)
	for i := 0; i < 64; i++ {
		sc := scratchPool.Get().(*scratch)
		if cap(sc.buf) > maxScratch || 4*cap(sc.slots) > maxScratch {
			t.Fatalf("pooled scratch holds %d buffer bytes and %d slots, cap %d bytes",
				cap(sc.buf), cap(sc.slots), maxScratch)
		}
	}
}

// TestTokensConcurrentMatchesSerial: eight goroutines sharing the pooled
// scratch compute exactly what one goroutine does.
func TestTokensConcurrentMatchesSerial(t *testing.T) {
	texts := append([]string(nil), fixedTexts...)
	for _, p := range wordyPieces {
		texts = append(texts, p+" "+productText+" "+p)
	}
	type result struct {
		toks  [][]string
		clean string
	}
	run := func(s string) result {
		var r result
		for _, m := range Models() {
			r.toks = append(r.toks, m.Tokens(s))
		}
		r.clean = Clean(s)
		return r
	}
	want := make([]result, len(texts))
	for i, s := range texts {
		want[i] = run(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range texts {
				i := (k + g*len(texts)/8) % len(texts)
				if got := run(texts[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, text %q: got %q, serial %q", g, texts[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var tokensSink []string

// BenchmarkTokensC3G prices the C3G tokens of one product text — the
// encode of a sparse query, the prepare of a sparse write.
func BenchmarkTokensC3G(b *testing.B) {
	c3g := Model{N: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokensSink = c3g.Tokens(productText)
	}
}

func BenchmarkTokensC3GReference(b *testing.B) {
	c3g := Model{N: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokensSink = TokensReference(c3g, productText)
	}
}

var cleanSink string

// BenchmarkClean prices cleaning one product text.
func BenchmarkClean(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cleanSink = Clean(productText)
	}
}

func BenchmarkCleanReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cleanSink = CleanReference(productText)
	}
}
