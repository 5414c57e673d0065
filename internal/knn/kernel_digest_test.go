package knn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

// The digests TestKernelPinnedDigests compares with, recorded from the
// pure-Go vector.Dot / vector.L2Sq at the commit before the AVX2 kernels.
// They are the same with the kernels, under -tags purego and on a CPU
// without AVX2; a red pin means a distance moved by at least one bit.
const (
	pinnedHNSWSave    = "d6029fc430412acaa36009b6e0aa0035ab315a28ac79f6d224cc963825515221"
	pinnedDenseAnswer = "fa09448bc39f641000bf550b82d30ec94367aa884138f2c5a966fb0127e0911c"
)

// TestKernelPinnedDigests builds the 2 000 x 300-d product graph of
// BenchmarkIncHNSWBuild and pins the SHA-256 of its Save stream — every
// link is the outcome of thousands of distance comparisons — and of the
// answers (ids and score bits) 100 held-out product vectors get from the
// HNSW beam, the exact dot-product scan and the exact L2² scan.
func TestKernelPinnedDigests(t *testing.T) {
	vecs := productVecs(2100)
	corpus, queries := vecs[:2000], vecs[2000:]
	g := NewIncHNSW(DotProduct, HNSWParams{})
	dot, l2 := NewIncFlat(DotProduct), NewIncFlat(L2Squared)
	for id, v := range corpus {
		for _, add := range []func(int64, vector.Vec) error{g.Add, dot.Add, l2.Add} {
			if err := add(int64(id), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(saved.Bytes()); hex.EncodeToString(got[:]) != pinnedHNSWSave {
		t.Errorf("Save digest %x, pinned %s", got, pinnedHNSWSave)
	}

	answers := sha256.New()
	gs, ds, ls := g.Freeze(), dot.Freeze(), l2.Freeze()
	for _, q := range queries {
		for _, hits := range [][]hit.Hit{gs.Search(q, 10), ds.Search(q, 10), ls.Search(q, 10)} {
			for _, h := range hits {
				var rec [16]byte
				binary.LittleEndian.PutUint64(rec[:8], uint64(h.ID))
				binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(h.Score))
				answers.Write(rec[:])
			}
		}
	}
	if got := hex.EncodeToString(answers.Sum(nil)); got != pinnedDenseAnswer {
		t.Errorf("answers digest %s, pinned %s", got, pinnedDenseAnswer)
	}
}
