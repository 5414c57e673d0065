package main

import (
	"reflect"
	"sort"
	"testing"
)

func takeOps(s *sequence, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSequenceDeterministic(t *testing.T) {
	a, b := takeOps(newSequence(7, 250, 250), 1700), takeOps(newSequence(7, 250, 250), 1700)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different op sequences")
	}
	if reflect.DeepEqual(a, takeOps(newSequence(8, 250, 250), 1700)) {
		t.Fatal("two seeds gave the same op sequence")
	}
}

// Two seeds issue the same multiset of requests per cycle — every read
// request once, every pool entity once, as many deletes as inserts — and
// every later cycle repeats it.
func TestSequenceCycleMultisetIsSeedInvariant(t *testing.T) {
	for _, shape := range []struct{ reads, writes int }{{1000, 42}, {250, 250}} {
		cycle := shape.reads + shape.writes
		canon := func(ops []op) []op {
			out := append([]op(nil), ops...)
			sort.Slice(out, func(i, j int) bool {
				if out[i].kind != out[j].kind {
					return out[i].kind < out[j].kind
				}
				return out[i].idx < out[j].idx
			})
			return out
		}
		var want []op
		for r := 0; r < shape.reads; r++ {
			want = append(want, op{opRead, r})
		}
		for p := 0; p < shape.writes/2; p++ {
			want = append(want, op{opInsert, p})
		}
		for p := 0; p < shape.writes/2; p++ {
			want = append(want, op{kind: opDelete})
		}
		for _, seed := range []int64{1, 2, 99} {
			s := newSequence(seed, shape.reads, shape.writes)
			for c := 0; c < 3; c++ {
				if got := canon(takeOps(s, cycle)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d cycle %d of %+v: request multiset differs from the canonical one", seed, c, shape)
				}
			}
		}
	}
}

// Write slots alternate insert, delete, so the FIFO a delete pops from
// is never empty, whatever the seed and however long the run.
func TestSequenceNeverDeletesBeforeInsert(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		live := 0
		for _, o := range takeOps(newSequence(seed, 100, 42), 1000) {
			switch o.kind {
			case opInsert:
				live++
			case opDelete:
				live--
			}
			if live < 0 || live > 1 {
				t.Fatalf("seed %d: %d benchmark-inserted entities live", seed, live)
			}
		}
	}
}
