package main

import "math/rand"

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one request of the closed loop. For a read, idx is the read
// request (a query, or a fixed group of queries); for an insert, the
// pool entity. A delete removes the oldest entity the benchmark itself
// inserted and still has resident (FIFO), so it needs no index.
type op struct {
	kind opKind
	idx  int
}

// sequence is the seeded, endlessly cycling op stream of one run. One
// cycle holds every read request exactly once, writes/2 inserts (every
// pool entity exactly once) and writes/2 deletes; the seed only decides
// the order of the reads, which cycle positions are write slots, and the
// order of the pool. Write slots alternate insert, delete. So two seeds
// issue the same multiset of requests per cycle, and a run of any length
// serves each read request the same number of times, give or take one.
type sequence struct {
	reads   []int  // permutation of read request indices
	isWrite []bool // per cycle position
	pool    []int  // permutation of pool indices

	pos, nextRead, nextWrite, nextPool int
}

func newSequence(seed int64, reads, writes int) *sequence {
	if writes%2 != 0 {
		panic("perf: writes per cycle must pair inserts with deletes")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &sequence{
		reads:   rng.Perm(reads),
		isWrite: make([]bool, reads+writes),
		pool:    rng.Perm(writes / 2),
	}
	for _, p := range rng.Perm(reads + writes)[:writes] {
		s.isWrite[p] = true
	}
	return s
}

func (s *sequence) next() op {
	w := s.isWrite[s.pos]
	s.pos = (s.pos + 1) % len(s.isWrite)
	if !w {
		o := op{opRead, s.reads[s.nextRead]}
		s.nextRead = (s.nextRead + 1) % len(s.reads)
		return o
	}
	s.nextWrite++
	if s.nextWrite%2 == 0 {
		return op{kind: opDelete}
	}
	return s.nextInsert()
}

// nextInsert draws the next pool entity; the untimed priming of a
// workload's live window uses it directly.
func (s *sequence) nextInsert() op {
	o := op{opInsert, s.pool[s.nextPool]}
	s.nextPool = (s.nextPool + 1) % len(s.pool)
	return o
}
