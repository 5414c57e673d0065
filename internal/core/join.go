package core

import (
	"erfilter/internal/entity"
	"erfilter/internal/hit"
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
// collections (t_r), index one of them (t_i), probe the index with every
// entity of the other (t_q). A method is its three phase bodies. index
// also hands back the queries in the form probe takes them: for a sparse
// method those are token sets, which only exist once the dictionary both
// sides share has been built.
func join[R, I, Q any](
	reverse bool,
	represent func() (e1, e2 R),
	index func(indexed, queries R) (I, []Q),
	probe func(I, Q) []hit.Hit,
) *Outcome {
	sw := newStopwatch()
	out := &Outcome{}

	e1, e2 := represent()
	out.Timing.Preprocess = sw.lap()

	idx, queries := index(Sides(reverse, e1, e2))
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	for qi, q := range queries {
		for _, h := range probe(idx, q) {
			pairs = append(pairs, PairOf(reverse, qi, h.ID))
		}
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out
}
