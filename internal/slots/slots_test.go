package slots

import (
	"fmt"
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
