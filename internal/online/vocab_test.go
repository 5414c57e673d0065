package online

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// TestVocabKeyDoesNotPinText: 200 entities of 64 KiB, each with one novel
// word, inserted and deleted again, leave less than 1 MiB of heap behind.
// Their tokens are windows of their texts, and the vocabulary keeps a key
// for every novel token for ever: a key stored as the window would keep
// the whole text reachable: 14 MiB here, at T1G since the seed (Tokenize
// cuts windows of the lower-cased text) and at C3G since the grams are
// windows too.
func TestVocabKeyDoesNotPinText(t *testing.T) {
	filler := strings.Repeat("filler ", 64<<10/7)
	for _, model := range []string{"T1G", "C3G"} {
		t.Run(model, func(t *testing.T) {
			m, err := text.ParseModel(model)
			if err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, Config{Method: KNNJoin, Model: m, Measure: sparse.Cosine, K: 2}, 1)
			defer r.Close()
			r.Insert(attrsText(filler))
			before := liveHeap()
			for i := 0; i < 200; i++ {
				novel := fmt.Sprintf("%c%c%cnovel", 'a'+i%26, 'a'+i/26, 'q'+i%7)
				if !r.Delete(r.Insert(attrsText(novel + " " + filler))) {
					t.Fatalf("entity %d was not resident", i)
				}
			}
			grew := int64(liveHeap()) - int64(before)
			runtime.KeepAlive(r)
			if grew >= 1<<20 {
				t.Errorf("%.1f MiB still reachable after deleting every entity, want < 1 MiB", float64(grew)/(1<<20))
			}
		})
	}
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFrozenVocabUnmovedByLaterEncodes: every dictionary Frozen returns
// maps every token as it did when frozen while later Encodes add tokens
// — the table growing under it included — and maps a token added after
// it to its own sentinel, as if never seen.
func TestFrozenVocabUnmovedByLaterEncodes(t *testing.T) {
	v := NewVocab()
	tok := func(i int) string { return fmt.Sprintf("t%d", i) }
	type kept struct {
		d    vocabView
		want []int32 // token i → id, or the sentinel
	}
	var snaps []kept
	const n = 5000 // the table grows from 64 to 8192 slots
	for i := 0; i < n; i++ {
		// The first tokens again beside each new one: hits and a miss.
		if got := v.Encode([]string{tok(i / 2), tok(i), tok(i / 3)}); got[1] != int32(i) {
			t.Fatalf("token %d got id %d", i, got[1])
		}
		if i%97 == 0 || i&(i-1) == 0 {
			d := v.Frozen()
			want := make([]int32, n)
			for j := range want {
				want[j] = int32(min(j, i+1))
			}
			snaps = append(snaps, kept{d, want})
		}
	}
	all := make([]string, n)
	for j := range all {
		all[j] = tok(j)
	}
	for s, k := range snaps {
		if got := encodeFrozen(&k.d, all); !slices.Equal(got, k.want) {
			first := 0
			for got[first] == k.want[first] {
				first++
			}
			t.Fatalf("snapshot %d (%d tokens): token %d maps to %d, want %d", s, k.d.Len(), first, got[first], k.want[first])
		}
	}
	if g := encodeFrozen(&snaps[0].d, []string{tok(0), "never"}); !slices.Equal(g, []int32{0, 1}) {
		t.Fatalf("first snapshot maps %v, want [0 1]", g)
	}
}

// TestVocabBytesPerToken bounds the heap the dictionary of the
// knnj_point corpus holds: its ≈ 17.5 k distinct C3G tokens in ≤ 320
// KiB, measured as what dropping it frees. A map[string]int32 with a
// cloned key a token held ≈ 0.9 MB here.
func TestVocabBytesPerToken(t *testing.T) {
	batch, _ := productBatch(10000)
	cfg := benchConfigs()["knnj-C3G"]
	toks := make([][]string, len(batch))
	for i, attrs := range batch {
		toks[i] = cfg.Model.Tokens(cfg.TextOf(attrs))
	}
	batch = nil
	v := NewVocab()
	for _, ts := range toks {
		v.Encode(ts)
	}
	toks = nil
	with := liveHeap()
	tokens := v.Len()
	runtime.KeepAlive(v)
	v = nil
	held := int64(with) - int64(liveHeap())
	t.Logf("%d tokens in %d B (%.1f B a token)", tokens, held, float64(held)/float64(tokens))
	if tokens < 17000 || tokens > 18000 {
		t.Fatalf("%d tokens: the corpus no longer is knnj_point's", tokens)
	}
	if held > 320<<10 {
		t.Fatalf("the dictionary holds %d B, want <= %d", held, 320<<10)
	}
}

// TestFrozenVocabReadersWhileWriterEncodes: readers encode every token
// through a frozen dictionary, and tokens it never saw, while the writer
// adds tokens into the same table and grows it three times; run under
// -race, where a write into a slot or byte a snapshot reads shows.
func TestFrozenVocabReadersWhileWriterEncodes(t *testing.T) {
	v := NewVocab()
	tok := func(i int) string { return fmt.Sprintf("w%d", i) }
	const frozen, total = 600, 8000
	all := make([]string, total)
	for i := range all {
		all[i] = tok(i)
	}
	v.Encode(all[:frozen])
	d := v.Frozen()
	want := make([]int32, total)
	for i := range want {
		want[i] = int32(min(i, frozen))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if got := encodeFrozen(&d, all); !slices.Equal(got, want) {
					errs <- fmt.Errorf("round %d: the frozen dictionary changed under a reader", round)
					return
				}
			}
		}()
	}
	for i := frozen; i < total; i++ {
		v.Encode(all[i : i+1])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
