package lsh

import (
	"math"
	"slices"

	"erfilter/internal/vector"
)

// Hyperplane implements Hyperplane LSH (Charikar, STOC 2002): each of
// Tables hash tables draws Hashes random Gaussian hyperplanes; a vector's
// hash in a table is the sign pattern of its projections. Two unit vectors
// with angle α collide on one hyperplane with probability 1 − α/π.
// Querying is multi-probe: besides the query's own bucket, the Probes−1
// buckets obtained by flipping the lowest-margin sign bits are inspected.
type Hyperplane struct {
	Tables, Hashes int
	// Probes is the number of buckets inspected per table per query
	// (including the base bucket). Probes <= 1 disables multi-probing.
	Probes int
	// Seed drives the random hyperplanes.
	Seed uint64
}

// HyperplaneIndex holds the per-table hyperplanes and buckets of one
// indexed collection. It is immutable once built.
type HyperplaneIndex struct {
	h      *Hyperplane
	n, dim int
	tables []hpTable
}

type hpTable struct {
	planes  []float64
	buckets map[uint64][]int32
}

// hyperplanes returns the Hashes random hyperplanes of one table as a
// flat [Hashes][dim] matrix.
func (h *Hyperplane) hyperplanes(table, dim int) []float64 {
	planes := make([]float64, h.Hashes*dim)
	vector.Gaussian(planes, h.Seed+uint64(table)*0x2545f4914f6cdd1d+11)
	return planes
}

// signKey packs sign bits into a bucket key.
func signKey(bits []bool) uint64 {
	var k uint64
	for i, b := range bits {
		if b {
			k |= 1 << uint(i)
		}
	}
	return k
}

// Build indexes the vectors.
func (h *Hyperplane) Build(vecs []vector.Vec) *HyperplaneIndex {
	if len(vecs) == 0 {
		return &HyperplaneIndex{h: h}
	}
	idx := &HyperplaneIndex{
		h:      h,
		n:      len(vecs),
		dim:    len(vecs[0]),
		tables: make([]hpTable, h.Tables),
	}
	var sc Scratch
	for t := range idx.tables {
		idx.tables[t].planes = h.hyperplanes(t, idx.dim)
		idx.tables[t].buckets = map[uint64][]int32{}
		for i, v := range vecs {
			idx.project(idx.tables[t].planes, v, &sc)
			k := signKey(sc.bits)
			idx.tables[t].buckets[k] = append(idx.tables[t].buckets[k], int32(i))
		}
	}
	return idx
}

// project leaves v's projection on each of a table's planes in sc.dots and
// its sign in sc.bits.
func (idx *HyperplaneIndex) project(planes []float64, v vector.Vec, sc *Scratch) {
	sc.dots = slices.Grow(sc.dots[:0], idx.h.Hashes)[:idx.h.Hashes]
	sc.bits = slices.Grow(sc.bits[:0], idx.h.Hashes)[:idx.h.Hashes]
	for i := 0; i < idx.h.Hashes; i++ {
		row := planes[i*idx.dim : (i+1)*idx.dim]
		var d float64
		for j := range row {
			d += row[j] * float64(v[j])
		}
		sc.dots[i] = d
		sc.bits[i] = d >= 0
	}
}

// Query invokes fn once for every indexed entity sharing a (multi-probed)
// bucket with v in any table, keeping its state in sc.
func (idx *HyperplaneIndex) Query(v vector.Vec, sc *Scratch, fn func(e int32)) {
	if len(idx.tables) == 0 {
		return
	}
	probes := idx.h.Probes
	if probes < 1 {
		probes = 1
	}
	sc.seen.begin(idx.n)
	for t := range idx.tables {
		tb := &idx.tables[t]
		idx.project(tb.planes, v, sc)
		base := signKey(sc.bits)
		keys := []uint64{base}
		if probes > 1 {
			options := make([][]float64, idx.h.Hashes)
			for i := range options {
				options[i] = []float64{0, math.Abs(sc.dots[i])}
			}
			keys = keys[:0]
			for _, choice := range probeSequence(options, probes) {
				k := base
				for bit, c := range choice {
					if c == 1 {
						k ^= 1 << uint(bit)
					}
				}
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			sc.seen.report(tb.buckets[k], fn)
		}
	}
}
