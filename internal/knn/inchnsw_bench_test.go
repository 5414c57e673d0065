package knn

import (
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/vector"
)

// productVecs embeds n generated product profiles the way the dense
// online resolver does: schema-agnostic text, hashed-subword 300-d
// vectors.
func productVecs(n int) []vector.Vec {
	task := datagen.Generate(datagen.QuickSpec(n, 0, 0, 1))
	texts := make([]string, n)
	for i := range texts {
		texts[i] = task.E1.Profiles[i].AllText()
	}
	return vector.NewEmbedder(vector.Dim).Texts(texts)
}

var buildSink *IncHNSW

// BenchmarkIncHNSWBuild prices graph construction alone on the corpus
// shape of the repository benchmark's hnsw_point workload: 2 000 x 300-d
// product embeddings, default parameters, dot product.
func BenchmarkIncHNSWBuild(b *testing.B) {
	vecs := productVecs(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewIncHNSW(DotProduct, HNSWParams{})
		for id, v := range vecs {
			if err := g.Add(int64(id), v); err != nil {
				b.Fatal(err)
			}
		}
		buildSink = g
	}
}
