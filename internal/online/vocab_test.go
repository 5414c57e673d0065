package online

import (
	"fmt"
	"runtime"
	"strings"
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
