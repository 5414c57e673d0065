package lsh

import (
	"math"
	"slices"

	"erfilter/internal/vector"
)

// CrossPolytope implements Cross-Polytope LSH (Andoni et al., NIPS 2015):
// the unit sphere is partitioned by the Voronoi cells of the vertices
// ±e_i of a randomly rotated cross-polytope. A vector's hash is the vertex
// closest to its pseudo-random rotation, computed FALCONN-style with
// rounds of random sign flips followed by fast Hadamard transforms.
// The 1-dimensional special case degenerates to Hyperplane LSH.
type CrossPolytope struct {
	Tables, Hashes int
	// LastCPDim restricts the vertex choice of the last hash function to
	// the first LastCPDim coordinates (1 .. padded dimension), trading
	// granularity for collision probability, as in FALCONN.
	LastCPDim int
	// Probes is the number of buckets inspected per table per query.
	Probes int
	// Seed drives the random rotations.
	Seed uint64
}

// maxProbeVerticesPerHash bounds the alternative vertices considered per
// hash function during multi-probe query expansion.
const maxProbeVerticesPerHash = 4

// CrossPolytopeIndex holds the rotations and buckets of one indexed
// collection. It is immutable once built.
type CrossPolytopeIndex struct {
	c       *CrossPolytope
	n       int
	dim     int
	pd      int
	lastDim int
	tables  []cpTable
}

// cpTable holds the rotation sign patterns of one table: three rounds per
// hash function.
type cpTable struct {
	signs   [][]float64 // [hash*3+round][paddedDim]
	buckets map[uint64][]int32
}

// paddedDim returns the smallest power of two >= dim.
func paddedDim(dim int) int {
	p := 1
	for p < dim {
		p <<= 1
	}
	return p
}

// rotate applies one pseudo-random rotation (3 rounds of sign flip +
// Hadamard) to buf in place.
func rotate(buf []float64, signs [][]float64) {
	for _, s := range signs {
		for i := range buf {
			if s[i] < 0 {
				buf[i] = -buf[i]
			}
		}
		hadamard(buf)
	}
}

// hadamard applies the unnormalized fast Walsh–Hadamard transform in place
// (the scale factor is irrelevant for argmax hashing).
func hadamard(v []float64) {
	n := len(v)
	for step := 1; step < n; step <<= 1 {
		for i := 0; i < n; i += step << 1 {
			for j := i; j < i+step; j++ {
				a, b := v[j], v[j+step]
				v[j], v[j+step] = a+b, a-b
			}
		}
	}
}

// rankedVertex is one cross-polytope vertex candidate: value encodes
// 2*coordinate + signBit, penalty the gap to the best coordinate.
type rankedVertex struct {
	value   uint32
	penalty float64
}

func rankVertices(rot []float64, dims, limit int) []rankedVertex {
	out := make([]rankedVertex, 0, limit)
	for len(out) < limit {
		best, bestAbs := -1, -1.0
		for i := 0; i < dims; i++ {
			a := math.Abs(rot[i])
			taken := false
			for _, r := range out {
				if int(r.value>>1) == i {
					taken = true
					break
				}
			}
			if !taken && a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			break
		}
		v := uint32(best << 1)
		if rot[best] < 0 {
			v |= 1
		}
		out = append(out, rankedVertex{value: v})
	}
	if len(out) > 0 {
		top := math.Abs(rot[out[0].value>>1])
		for i := range out {
			out[i].penalty = top - math.Abs(rot[out[i].value>>1])
		}
	}
	return out
}

// Build indexes the vectors.
func (c *CrossPolytope) Build(vecs []vector.Vec) *CrossPolytopeIndex {
	if len(vecs) == 0 {
		return &CrossPolytopeIndex{c: c}
	}
	dim := len(vecs[0])
	pd := paddedDim(dim)
	lastDim := c.LastCPDim
	if lastDim <= 0 || lastDim > pd {
		lastDim = pd
	}
	idx := &CrossPolytopeIndex{
		c: c, n: len(vecs), dim: dim, pd: pd, lastDim: lastDim,
		tables: make([]cpTable, c.Tables),
	}
	var sc Scratch
	for t := range idx.tables {
		idx.tables[t].buckets = map[uint64][]int32{}
		idx.tables[t].signs = make([][]float64, c.Hashes*3)
		for i := range idx.tables[t].signs {
			s := make([]float64, pd)
			vector.Gaussian(s, c.Seed+uint64(t)*1000003+uint64(i)*7919+5)
			idx.tables[t].signs[i] = s
		}
		for i, v := range vecs {
			ranked := idx.hashAll(&idx.tables[t], v, 1, &sc)
			k := idx.combineKey(ranked, nil)
			idx.tables[t].buckets[k] = append(idx.tables[t].buckets[k], int32(i))
		}
	}
	return idx
}

// hashAll computes, per hash function, the ranked vertex list of v,
// rotating it in sc.buf.
func (idx *CrossPolytopeIndex) hashAll(tb *cpTable, v vector.Vec, limit int, sc *Scratch) [][]rankedVertex {
	sc.buf = slices.Grow(sc.buf[:0], idx.pd)[:idx.pd]
	buf := sc.buf
	out := make([][]rankedVertex, idx.c.Hashes)
	for hf := 0; hf < idx.c.Hashes; hf++ {
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < idx.dim; i++ {
			buf[i] = float64(v[i])
		}
		rotate(buf, tb.signs[hf*3:hf*3+3])
		dims := idx.pd
		if hf == idx.c.Hashes-1 {
			dims = idx.lastDim
		}
		out[hf] = rankVertices(buf, dims, limit)
	}
	return out
}

func (idx *CrossPolytopeIndex) combineKey(ranked [][]rankedVertex, choice []int) uint64 {
	var k uint64 = 0x243f6a8885a308d3
	for hf, r := range ranked {
		ci := 0
		if choice != nil {
			ci = choice[hf]
		}
		if ci >= len(r) {
			ci = len(r) - 1
		}
		k = vector.Mix64(k^uint64(r[ci].value), idx.c.Seed+uint64(hf))
	}
	return k
}

// Query invokes fn once for every indexed entity sharing a (multi-probed)
// bucket with v in any table, keeping its state in sc.
func (idx *CrossPolytopeIndex) Query(v vector.Vec, sc *Scratch, fn func(e int32)) {
	if len(idx.tables) == 0 {
		return
	}
	probes := idx.c.Probes
	if probes < 1 {
		probes = 1
	}
	sc.seen.begin(idx.n)
	for t := range idx.tables {
		tb := &idx.tables[t]
		limit := 1
		if probes > 1 {
			limit = maxProbeVerticesPerHash
		}
		ranked := idx.hashAll(tb, v, limit, sc)
		options := make([][]float64, idx.c.Hashes)
		for hf, r := range ranked {
			pen := make([]float64, len(r))
			for i := range r {
				pen[i] = r[i].penalty
			}
			options[hf] = pen
		}
		for _, choice := range probeSequence(options, probes) {
			sc.seen.report(tb.buckets[idx.combineKey(ranked, choice)], fn)
		}
	}
}
