package core

import (
	"slices"

	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/parallel"
)

// Sides is the first half of the RVS decision (Section IV): which
// collection is indexed and which one queries. By default E1 is indexed
// and every entity of E2 is a query; RVS swaps them. It takes whatever
// the caller holds one of per collection: texts, token sets, vectors, the
// two ids of a groundtruth pair.
func Sides[T any](reverse bool, e1, e2 T) (indexed, queries T) {
	if reverse {
		return e2, e1
	}
	return e1, e2
}

// PairOf is the second half: the candidate pair a hit of a query stands
// for, which is (E1 entity, E2 entity) whichever side was indexed. It is
// where a hit's int64 id narrows to the int32 of an entity.Pair: a batch
// kernel numbers its hits by position in a collection, and entity.Dataset
// addresses one by int32.
func PairOf(reverse bool, query int, indexed int64) entity.Pair {
	if reverse {
		return entity.Pair{Left: int32(query), Right: int32(indexed)}
	}
	return entity.Pair{Left: int32(indexed), Right: int32(query)}
}

// join is the NN workflow of Section IV, written once: represent both
// collections (t_r: cleaning and the representation model, one element per
// entity), index one of them (t_i: build the structure over the indexed
// side alone), probe the index with every entity of the other (t_q). A
// method is its three phase bodies.
//
// Represent runs its per-entity steps on GOMAXPROCS workers, and so does
// the query phase: the queries are cut into contiguous ranges, each range
// probes with a prober of its own (prober makes one, with whatever scratch
// it needs; the index is immutable once built), and the ranges' pairs are
// concatenated in range order. The pairs are therefore those of one loop
// over the queries, in its order, at any GOMAXPROCS.
func join[Q, I any](
	reverse bool,
	represent func() (e1, e2 []Q),
	index func(indexed []Q) I,
	prober func() func(I, Q) []hit.Hit,
) *Outcome {
	sw := newStopwatch()
	out := &Outcome{}

	e1, e2 := represent()
	out.Timing.Preprocess = sw.lap()

	indexed, queries := Sides(reverse, e1, e2)
	idx := index(indexed)
	out.Timing.Index = sw.lap()

	out.Pairs = slices.Concat(parallel.Ranges(len(queries), func(lo, hi int) []entity.Pair {
		probe := prober()
		var pairs []entity.Pair
		for qi := lo; qi < hi; qi++ {
			for _, h := range probe(idx, queries[qi]) {
				pairs = append(pairs, PairOf(reverse, qi, h.ID))
			}
		}
		return pairs
	})...)
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	return out
}

// pure makes a prober of a probe that keeps no state between queries.
func pure[I, Q any](probe func(I, Q) []hit.Hit) func() func(I, Q) []hit.Hit {
	return func() func(I, Q) []hit.Hit { return probe }
}
