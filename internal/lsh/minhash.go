package lsh

import (
	"erfilter/internal/text"
	"erfilter/internal/vector"
)

// MinHash implements MinHash LSH: every entity's character k-shingle set is
// summarized by a signature of Bands*Rows min-hash values; the signature is
// split into bands, and two entities become candidates when at least one
// band hashes identically. The banding approximates a high-pass filter on
// Jaccard similarity with collision threshold roughly
// (1/#bands)^(1/#rows) (Section IV-D).
type MinHash struct {
	// Bands and Rows configure the banding; the signature length is
	// Bands*Rows and is a power of two in the paper's grid.
	Bands, Rows int
	// K is the shingle size (character k-grams), in [2,5] in the paper.
	K int
	// Seed drives the random permutations, making the method stochastic:
	// different seeds give different candidates.
	Seed uint64
}

// MinHashIndex holds the banded buckets of one indexed collection. It is
// immutable once built.
type MinHashIndex struct {
	m       *MinHash
	n       int
	buckets []map[uint64][]int32 // per band
}

// signature computes the min-hash signature of a text.
func (m *MinHash) signature(s string) []uint64 {
	n := m.Bands * m.Rows
	sig := make([]uint64, n)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	shingles := text.NGrams(s, m.K)
	for _, sh := range shingles {
		h := fnvString(sh)
		for i := 0; i < n; i++ {
			v := vector.Mix64(h, m.Seed+uint64(i)*0x9e3779b97f4a7c15+1)
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

func fnvString(s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// bandKey hashes one band of the signature to a bucket key.
func (m *MinHash) bandKey(sig []uint64, band int) uint64 {
	h := uint64(band) + 0x517cc1b727220a95
	for _, v := range sig[band*m.Rows : (band+1)*m.Rows] {
		h = vector.Mix64(v^h, m.Seed)
	}
	return h
}

// Build indexes the shingle signatures of one collection.
func (m *MinHash) Build(texts []string) *MinHashIndex {
	idx := &MinHashIndex{
		m:       m,
		n:       len(texts),
		buckets: make([]map[uint64][]int32, m.Bands),
	}
	for b := range idx.buckets {
		idx.buckets[b] = map[uint64][]int32{}
	}
	for i, s := range texts {
		sig := m.signature(s)
		for b := 0; b < m.Bands; b++ {
			k := m.bandKey(sig, b)
			idx.buckets[b][k] = append(idx.buckets[b][k], int32(i))
		}
	}
	return idx
}

// Query invokes fn once for every indexed entity colliding with the text
// in at least one band, keeping its state in sc.
func (idx *MinHashIndex) Query(s string, sc *Scratch, fn func(e int32)) {
	sc.seen.begin(idx.n)
	sig := idx.m.signature(s)
	for b := 0; b < idx.m.Bands; b++ {
		sc.seen.report(idx.buckets[b][idx.m.bandKey(sig, b)], fn)
	}
}
