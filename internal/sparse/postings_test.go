package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"erfilter/internal/hit"
)

// blockSets is a collection of n sets whose posting lists leave block 0:
// tokens 3–26 are drawn at random, one to three per set, and three
// tokens are placed by rule so that every escape of the encoding occurs:
//   - token 0 holds every 97th slot outside block 1, so its list jumps
//     from block 0 to block 2;
//   - token 1 holds the slots whose low half is 0xFFFE, 0xFFFF or 0, so
//     its list is escaped literals and block switches side by side;
//   - token 2 holds every 13th slot of block 2 only, so its list opens
//     with a switch.
func blockSets(n int) [][]int32 {
	rng := rand.New(rand.NewSource(33))
	sets := make([][]int32, n)
	for s := range sets {
		var set []int32
		for _, tok := range rng.Perm(24)[:1+rng.Intn(3)] {
			set = append(set, int32(3+tok))
		}
		if s%97 == 0 && s>>16 != 1 {
			set = append(set, 0)
		}
		if low := s & 0xFFFF; low >= 0xFFFE || low == 0 {
			set = append(set, 1)
		}
		if s>>16 == 2 && s%13 == 0 {
			set = append(set, 2)
		}
		sets[s] = set
	}
	return sets
}

// blockQueries name each ruled token alone, with each other and with
// random tokens, and a few random queries beside them.
func blockQueries() [][]int32 {
	qs := [][]int32{{0}, {1}, {2}, {0, 1, 2}, {0, 5}, {1, 7, 9}, {2, 3, 4, 5}}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 5; i++ {
		var q []int32
		for _, tok := range rng.Perm(27)[:1+rng.Intn(4)] {
			q = append(q, int32(tok))
		}
		qs = append(qs, q)
	}
	return qs
}

// answers is every query's range and kNN answers from one index.
func answers(idx *Index, queries [][]int32) [][]hit.Hit {
	var sc Scratch
	var out [][]hit.Hit
	for _, q := range queries {
		for _, m := range Measures() {
			for _, eps := range []float64{0.3, 0.6} {
				out = append(out, idx.RangeQuery(q, m, eps, &sc))
			}
			for _, k := range []int{1, 4} {
				out = append(out, idx.KNNQuery(q, m, k, &sc))
			}
		}
	}
	return out
}

// naiveAnswers is answers' oracle over the live sets (alive nil: all of
// them), each query's hits under a measure shared by its cuts.
func naiveAnswers(queries [][]int32, sets [][]int32, alive []bool) [][]hit.Hit {
	var out [][]hit.Hit
	for _, q := range queries {
		for _, m := range Measures() {
			all := naiveHits(sets, alive, q, m)
			for _, eps := range []float64{0.3, 0.6} {
				out = append(out, naiveRange(all, eps))
			}
			for _, k := range []int{1, 4} {
				out = append(out, naiveKNN(all, k))
			}
		}
	}
	return out
}

func sameAnswers(t *testing.T, what string, got, want [][]hit.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: answer %d has %d hits, want %d (first %v, want %v)",
				what, i, len(got[i]), len(want[i]), got[i][:min(3, len(got[i]))], want[i][:min(3, len(want[i]))])
		}
	}
}

// TestPostingsAcrossBlocks holds the index, built both ways, past one
// block of 2^16 slots to the naive overlap over the raw sets: NewIndex,
// the memtable's snapshots, a snapshot frozen in block 0 before the writer
// opens block 1 and 2, and a compaction that moves slots back across
// the block boundary.
func TestPostingsAcrossBlocks(t *testing.T) {
	const n, early = 140000, 65530
	sets, queries := blockSets(n), blockQueries()

	wantAll := naiveAnswers(queries, sets, nil)
	sameAnswers(t, "Index", answers(NewIndex(sets, 27), queries), wantAll)

	inc := NewIncIndex()
	for i, set := range sets[:early] {
		if err := inc.Add(int64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.Freeze()
	wantBefore := naiveAnswers(queries, sets[:early], nil)
	sameAnswers(t, "snapshot in block 0", answers(before, queries), wantBefore)
	for i := early; i < n; i++ {
		if err := inc.Add(int64(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	full := inc.Freeze()
	sameAnswers(t, "snapshot over three blocks", answers(full, queries), wantAll)
	sameAnswers(t, "block-0 snapshot after the writer left block 0", answers(before, queries), wantBefore)

	// Dropping 6 000 slots of block 0 moves slots 65 536–71 535 back into
	// it, and token 2's run from block 2 into block 1.
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = i < 10000 || i >= 16000
		if !alive[i] && !inc.Remove(int64(i)) {
			t.Fatalf("remove %d", i)
		}
	}
	inc.Compact()
	for tok := range inc.postings.Len() {
		if list := inc.postings.At(tok); cap(list) != len(list) {
			t.Fatalf("token %d's list after Compact: len %d cap %d", tok, len(list), cap(list))
		}
	}
	sameAnswers(t, "snapshot after Compact", answers(inc.Freeze(), queries), naiveAnswers(queries, sets, alive))
	sameAnswers(t, "snapshot frozen before Compact", answers(full, queries), wantAll)

	// Compact re-derives the writer's blocks: token 2's list now ends in
	// block 1, and these sets bring it back to block 2.
	for i := n; i < n+3000; i++ {
		set := sets[i-n+2<<16]
		sets, alive = append(sets, set), append(alive, true)
		if err := inc.Add(int64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	sameAnswers(t, "snapshot after Compact and Add", answers(inc.Freeze(), queries), naiveAnswers(queries, sets, alive))
}

// TestIncIndexCompactExactCapacity pins that Compact writes every list at
// its length: it rewrites them all, so none keeps append's slack.
func TestIncIndexCompactExactCapacity(t *testing.T) {
	idx := NewIncIndex()
	for i := int64(0); i < 2000; i++ {
		if err := idx.Add(i, setFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	slack := 0
	for tok := range idx.postings.Len() {
		list := idx.postings.At(tok)
		slack += cap(list) - len(list)
	}
	if slack == 0 {
		t.Fatal("append left no slack: the test proves nothing")
	}
	for i := int64(0); i < 2000; i += 7 {
		idx.Remove(i)
	}
	idx.Compact()
	for tok := range idx.postings.Len() {
		if list := idx.postings.At(tok); cap(list) != len(list) {
			t.Fatalf("token %d: len %d cap %d after Compact", tok, len(list), cap(list))
		}
	}
}

// postingSlots reads a fuzz input as an ascending slot sequence in
// [0, 2^31−1), five bytes a slot: a shift, whose bit 5 rounds the slot
// up to the next one whose low half is 0xFFFF, then a little-endian
// uint32 shifted right by the shift's low five bits as the gap from the
// slot before.
func postingSlots(data []byte) []int32 {
	var out []int32
	next := int64(0)
	for ; len(data) >= 5; data = data[5:] {
		slot := next + int64(binary.LittleEndian.Uint32(data[1:])>>(data[0]&31))
		if data[0]&32 != 0 {
			slot |= 0xFFFF
		}
		if slot >= math.MaxInt32 {
			break
		}
		out, next = append(out, int32(slot)), slot+1
	}
	return out
}

// postingRecord is one slot of a postingSlots input.
func postingRecord(shift byte, gap uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{shift}, gap)
}

// FuzzPostingList: any ascending slot sequence in [0, 2^31−1) that post
// writes decodes to itself; a sequence under 65 535 takes one entry a
// slot; and a sequence the scratch can cover decodes to itself through
// the probe's scan too.
func FuzzPostingList(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Concat(postingRecord(0, 5), postingRecord(0, 0), postingRecord(0, 70000)))
	f.Add(slices.Concat(postingRecord(32, 0), postingRecord(32, 0), postingRecord(0, 0), postingRecord(32, 1<<17)))
	f.Add(slices.Concat(postingRecord(0, 0xFFFE), postingRecord(0, 0), postingRecord(0, 0), postingRecord(0, 0)))
	f.Add(slices.Concat(postingRecord(0, 1<<30), postingRecord(0, 1<<30-3), postingRecord(32, 0)))
	var sc Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		slots := postingSlots(data)
		var list []uint16
		var block uint16
		for _, slot := range slots {
			list = post(list, &block, slot)
		}
		var got []int32
		each(list, func(slot int32) { got = append(got, slot) })
		if !slices.Equal(got, slots) {
			t.Fatalf("%v decoded to %v through %v", slots, got, list)
		}
		if len(slots) > 0 && slots[len(slots)-1] < escape && len(list) != len(slots) {
			t.Fatalf("%d slots in block 0 took %d entries", len(slots), len(list))
		}
		if len(slots) > 0 && slots[len(slots)-1] < 1<<18 {
			sc.Begin(int(slots[len(slots)-1]) + 1)
			sc.touch(list)
			if !slices.Equal(sc.Found(), slots) {
				t.Fatalf("%v scanned to %v through %v", slots, sc.Found(), list)
			}
		}
	})
}
