package segment

import (
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/faultfs"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

var probeSink int

// probeTier is a tier of one mapped sparse segment on the real file
// system: 6 000 product entities as C3G sets, every sixteenth of them
// tombstoned, and 64 queries, the C3G sets of noisy products of which
// 48 are duplicates of stored ones.
func probeTier(b *testing.B) (*View, [][]string) {
	s := datagen.QuickSpec(0, 0, 0, 0)
	s.Name, s.Domain, s.Seed = "probe", "product", 20230403
	s.N1, s.N2, s.Duplicates = 6000, 64, 48
	task := datagen.Generate(s)
	c3g, err := text.ParseModel("C3G")
	if err != nil {
		b.Fatal(err)
	}
	ents := make([]testEntry, len(task.E1.Profiles))
	for i, p := range task.E1.Profiles {
		ents[i] = testEntry{ID: int64(i), Attrs: p.Attrs, Tokens: c3g.Tokens(p.AllText())}
	}
	tr, err := Open(Options{FS: faultfs.OS{}, Dir: b.TempDir(), Kind: KindSparse, Measure: sparse.Cosine, SyncMerge: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	if err := flushEntries(tr, ents, int64(len(ents))); err != nil {
		b.Fatal(err)
	}
	for id := int64(0); id < int64(len(ents)); id += 16 {
		tr.Delete(id)
	}
	queries := make([][]string, len(task.E2.Profiles))
	for i, p := range task.E2.Profiles {
		queries[i] = c3g.Tokens(p.AllText())
	}
	return tr.View(), queries
}

// BenchmarkSegmentKNNQuery is one k = 3 cosine probe of the mapped
// segment through the tier's view: the dictionary search, the ScanCount
// over the postings, the tombstone test per candidate and the kNN cut.
func BenchmarkSegmentKNNQuery(b *testing.B) {
	v, queries := probeTier(b)
	var sc sparse.Scratch
	parts := v.SparseKNN(nil, queries[0], 3, &sc) // grow the scratch: -benchtime 1x is CI's smoke
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts = v.SparseKNN(parts[:0], queries[i%len(queries)], 3, &sc)
		probeSink += len(parts[0])
	}
}

// BenchmarkSegmentRangeQuery is one ε = 0.25 cosine probe of the same
// segment.
func BenchmarkSegmentRangeQuery(b *testing.B) {
	v, queries := probeTier(b)
	var sc sparse.Scratch
	parts := v.SparseRange(nil, queries[0], 0.25, &sc) // grow the scratch: -benchtime 1x is CI's smoke
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts = v.SparseRange(parts[:0], queries[i%len(queries)], 0.25, &sc)
		probeSink += len(parts[0])
	}
}
