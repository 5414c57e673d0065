package slots

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// entry is one slot of the model.
type entry struct {
	id   int64
	live bool
}

// model is the reference: one entry per slot, in slot order.
type model []entry

func (m model) slotOf(id int64) int {
	for s, e := range m {
		if e.live && e.id == id {
			return s
		}
	}
	return -1
}

func (m model) dead() int {
	n := 0
	for _, e := range m {
		if !e.live {
			n++
		}
	}
	return n
}

// check holds a view to the model it was frozen from.
func check(v *View, m model) error {
	if v.Slots() != len(m) || v.Len() != len(m)-m.dead() {
		return fmt.Errorf("view has %d slots, %d live; model %d, %d", v.Slots(), v.Len(), len(m), len(m)-m.dead())
	}
	for s, e := range m {
		if v.ID(int32(s)) != e.id || v.Live(int32(s)) != e.live {
			return fmt.Errorf("slot %d reads (%d, %v), model (%d, %v)", s, v.ID(int32(s)), v.Live(int32(s)), e.id, e.live)
		}
	}
	return nil
}

// run replays ops against a Table and the model: add fresh ids, remove a
// live one, re-add a removed one, add a live one (refused), compact or
// freeze. It returns the first disagreement.
func run(ops []uint64) error {
	var t Table
	var m model
	type frozen struct {
		v View
		m model
	}
	var views []frozen
	var removed []int64
	next := int64(0)
	for i, op := range ops {
		live := make([]int64, 0, len(m))
		for _, e := range m {
			if e.live {
				live = append(live, e.id)
			}
		}
		switch pick := op >> 8; op % 8 {
		case 0, 1:
			if len(live) == 0 {
				continue
			}
			id := live[pick%uint64(len(live))]
			if !t.Remove(id) || t.Remove(id) {
				return fmt.Errorf("op %d: Remove(%d) of a live id", i, id)
			}
			m[m.slotOf(id)].live = false
			removed = append(removed, id)
		case 2:
			if len(removed) == 0 {
				continue
			}
			j := int(pick % uint64(len(removed)))
			id := removed[j]
			removed = append(removed[:j], removed[j+1:]...)
			slot, err := t.Add(id)
			if err != nil || int(slot) != len(m) {
				return fmt.Errorf("op %d: re-Add(%d) = %d, %v; want slot %d", i, id, slot, err, len(m))
			}
			m = append(m, entry{id, true})
		case 3:
			if len(live) == 0 {
				continue
			}
			id := live[pick%uint64(len(live))]
			if _, err := t.Add(id); err == nil {
				return fmt.Errorf("op %d: Add of live id %d accepted", i, id)
			}
		case 4:
			remap := t.Compact()
			if m.dead() == 0 {
				if remap != nil {
					return fmt.Errorf("op %d: Compact with nothing dead returned %v", i, remap)
				}
				continue
			}
			if len(remap) != len(m) {
				return fmt.Errorf("op %d: remap has %d entries for %d slots", i, len(remap), len(m))
			}
			var kept model
			for s, e := range m {
				want := int32(-1)
				if e.live {
					want = int32(len(kept))
					kept = append(kept, e)
				}
				if remap[s] != want {
					return fmt.Errorf("op %d: remap[%d] = %d, want %d", i, s, remap[s], want)
				}
			}
			m = kept
		case 5:
			views = append(views, frozen{t.Freeze(), append(model(nil), m...)})
		default: // a run of fresh ids, so sequences cross bitmap words
			for range 1 + pick%32 {
				slot, err := t.Add(next)
				if err != nil || int(slot) != len(m) {
					return fmt.Errorf("op %d: Add(%d) = %d, %v; want slot %d", i, next, slot, err, len(m))
				}
				m = append(m, entry{next, true})
				next++
			}
		}
		if t.Len() != len(m)-m.dead() || t.Dead() != m.dead() {
			return fmt.Errorf("op %d: Len %d Dead %d, model %d %d", i, t.Len(), t.Dead(), len(m)-m.dead(), m.dead())
		}
		for id := int64(0); id < next; id++ {
			if t.Has(id) != (m.slotOf(id) >= 0) {
				return fmt.Errorf("op %d: Has(%d) = %v", i, id, t.Has(id))
			}
		}
	}
	final := t.Freeze()
	views = append(views, frozen{final, m})
	for i, f := range views {
		if err := check(&f.v, f.m); err != nil {
			return fmt.Errorf("view %d after the run: %v", i, err)
		}
	}
	return nil
}

// TestTableMatchesModelQuick: over random sequences of adds, removes,
// re-adds of removed ids, refused duplicate adds and compactions, the
// table agrees with the model on Len, Dead and Has; a remap is -1 on
// the dead and increasing over the survivors; and every view reads, after
// all later mutations, what the table held when it was frozen.
func TestTableMatchesModelQuick(t *testing.T) {
	prop := func(ops []uint64) bool {
		if err := run(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTableWordBoundaries fills a table to 63, 64, 65 and 128 slots, the
// sizes at which the bitmap gains or fills a word, removes every third id
// (the last slot included), freezes, compacts and freezes again.
func TestTableWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var tb Table
			var m model
			for i := 0; i < n; i++ {
				if _, err := tb.Add(int64(100 + i)); err != nil {
					t.Fatal(err)
				}
				m = append(m, entry{int64(100 + i), true})
			}
			for s := n - 1; s >= 0; s -= 3 {
				tb.Remove(int64(100 + s))
				m[s].live = false
			}
			before := tb.Freeze()
			remap := tb.Compact()
			after := tb.Freeze()
			if err := check(&before, m); err != nil {
				t.Fatalf("view before Compact: %v", err)
			}
			var kept model
			for s, e := range m {
				if e.live != (remap[s] >= 0) {
					t.Fatalf("remap[%d] = %d for a slot live=%v", s, remap[s], e.live)
				}
				if e.live {
					kept = append(kept, e)
				}
			}
			if err := check(&after, kept); err != nil {
				t.Fatalf("view after Compact: %v", err)
			}
			// A slot added after compaction lands on the word the survivors
			// left partly filled, or starts the next one.
			if slot, _ := tb.Add(7); int(slot) != len(kept) || !tb.Has(7) {
				t.Fatalf("Add after Compact: slot %d, want %d", slot, len(kept))
			}
			if v := tb.Freeze(); !v.Live(int32(len(kept))) || v.Len() != len(kept)+1 {
				t.Fatalf("the slot added after Compact reads dead")
			}
		})
	}
}

// TestAllEqualsAddedInOrder: All(n) is the view of a table that added
// ids 0 … n−1 and removed none, word for word, at the sizes where the
// bitmap gains or fills a word.
func TestAllEqualsAddedInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		var tb Table
		var m model
		for i := 0; i < n; i++ {
			if _, err := tb.Add(int64(i)); err != nil {
				t.Fatal(err)
			}
			m = append(m, entry{int64(i), true})
		}
		all := All(n)
		if err := check(&all, m); err != nil {
			t.Fatalf("All(%d): %v", n, err)
		}
		want := tb.Freeze()
		if all.live.Len() != want.live.Len() {
			t.Fatalf("All(%d) has %d bitmap words, want %d", n, all.live.Len(), want.live.Len())
		}
		for w := range want.live.Len() {
			if all.live.At(w) != want.live.At(w) {
				t.Fatalf("All(%d) word %d is %x, want %x", n, w, all.live.At(w), want.live.At(w))
			}
		}
	}
}

// TestViewReadersWhileWriterRemoves: Remove clears a bit in place, so a
// view must own its bits. Readers scan a frozen view while the writer
// removes every id, adds more and compacts; run under -race.
func TestViewReadersWhileWriterRemoves(t *testing.T) {
	const n = 1000
	var tb Table
	for i := int64(0); i < n; i++ {
		if _, err := tb.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	v := tb.Freeze()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for s := int32(0); s < n; s++ {
					if !v.Live(s) || v.ID(s) != int64(s) {
						errs <- fmt.Errorf("slot %d changed under a reader", s)
						return
					}
				}
			}
		}()
	}
	for i := int64(0); i < n; i++ {
		tb.Remove(i)
		if _, err := tb.Add(n + i); err != nil {
			t.Fatal(err)
		}
	}
	tb.Compact()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v.Len() != n || tb.Len() != n || tb.Dead() != 0 {
		t.Fatalf("view Len %d, table Len %d Dead %d", v.Len(), tb.Len(), tb.Dead())
	}
}

// TestTableIndexMatchesMap holds the open-addressed id index to a map
// from live id to slot over seeded random Adds, Removes and Compacts:
// ids from runs, strides of a shard count and far-off values, re-adds of
// removed ids, refused duplicate adds, and sizes through several index
// growths and the shrinks of a Compact. After every operation Slot and
// Has agree with the map for every id ever used.
func TestTableIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table
		want := map[int64]int32{} // live id → slot
		var used, removed []int64
		seen := map[int64]bool{}
		next := int64(0)
		fresh := func() int64 {
			for {
				next++
				id := int64(rng.Uint64())
				switch rng.Intn(4) {
				case 0:
					id = next
				case 1:
					id = next * 3 // one shard of three
				case 2:
					id = -next << 20
				}
				if !seen[id] {
					seen[id] = true
					return id
				}
			}
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 20 && len(want) > 0:
				id := used[rng.Intn(len(used))]
				_, live := want[id]
				if tab.Remove(id) != live {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, want %v", seed, op, id, !live, live)
				}
				if live {
					delete(want, id)
					removed = append(removed, id)
				}
			case r < 27 && len(removed) > 0:
				j := rng.Intn(len(removed))
				id := removed[j]
				removed = append(removed[:j], removed[j+1:]...)
				if _, live := want[id]; live {
					continue
				}
				slot, err := tab.Add(id)
				if err != nil || int(slot) != tab.Slots()-1 {
					t.Fatalf("seed %d op %d: re-Add(%d) = %d, %v", seed, op, id, slot, err)
				}
				want[id] = slot
			case r < 32 && len(want) > 0:
				id := used[rng.Intn(len(used))]
				if _, live := want[id]; live {
					if _, err := tab.Add(id); err == nil {
						t.Fatalf("seed %d op %d: Add of live id %d accepted", seed, op, id)
					}
				}
			case r < 34:
				if remap := tab.Compact(); remap != nil {
					for id, slot := range want {
						want[id] = remap[slot]
					}
				}
			default:
				id := fresh()
				slot, err := tab.Add(id)
				if err != nil {
					t.Fatalf("seed %d op %d: Add(%d): %v", seed, op, id, err)
				}
				want[id] = slot
				used = append(used, id)
			}
			if tab.Len() != len(want) {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, tab.Len(), len(want))
			}
			for _, id := range used {
				slot, live := tab.Slot(id)
				w, wantLive := want[id]
				if live != wantLive || tab.Has(id) != wantLive || (live && slot != w) {
					t.Fatalf("seed %d op %d: Slot(%d) = %d, %v; want %d, %v", seed, op, id, slot, live, w, wantLive)
				}
			}
		}
	}
}

// TestTableIndexBytesPerID: the id index of knnj_point's 10 021 entities
// costs at most 8 B a live id; a map[int64]int32 held about 29.
func TestTableIndexBytesPerID(t *testing.T) {
	const n = 10021
	var tab Table
	for id := int64(0); id < n; id++ {
		if _, err := tab.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(4*len(tab.index)) / n
	t.Logf("%d live ids: the index holds %.2f B a live id", n, per)
	if per > 8 {
		t.Fatalf("the index holds %.2f B a live id, want at most 8", per)
	}
}
