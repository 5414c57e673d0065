package slots

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// pagesEqual holds a frozen Pages to the plain slice it was frozen from.
func pagesEqual(p *Pages[int], want []int) error {
	if p.Len() != len(want) {
		return fmt.Errorf("Len %d, want %d", p.Len(), len(want))
	}
	for i, w := range want {
		if got := p.At(i); got != w {
			return fmt.Errorf("element %d reads %d, want %d", i, got, w)
		}
	}
	return nil
}

// TestPagedModel replays seeded random Append, Grow, Ref writes and
// Freezes over a plain slice and keeps every frozen Pages with the copy
// of the slice it was frozen from; after the last write each must still
// read its copy, element for element.
func TestPagedModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p Paged[int]
		var model []int
		type frozen struct {
			p    Pages[int]
			want []int
		}
		var kept []frozen
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 30:
				v := rng.Int()
				p.Append(v)
				model = append(model, v)
			case r < 35:
				n := len(model) + rng.Intn(3*PageSize)
				p.Grow(n)
				model = append(model, make([]int, n-len(model))...)
			case r < 95 && len(model) > 0:
				i, v := rng.Intn(len(model)), rng.Int()
				*p.Ref(i) = v
				model[i] = v
			default:
				kept = append(kept, frozen{p.Freeze(), slices.Clone(model)})
			}
		}
		if err := pagesEqual(&p.Pages, model); err != nil {
			t.Fatalf("seed %d: the writer's own array: %v", seed, err)
		}
		for i := range kept {
			if err := pagesEqual(&kept[i].p, kept[i].want); err != nil {
				t.Fatalf("seed %d: snapshot %d of %d: %v", seed, i, len(kept), err)
			}
		}
	}
}

// TestRowsModel is TestPagedModel for a table of rows, over the three
// tables the indexes keep: level-0 link rows, rewritten through Ref; and
// vectors and word records, each written once, when it is appended.
func TestRowsModel(t *testing.T) {
	t.Run("links", func(t *testing.T) { rowsModel(t, 3, 8, true, (*rand.Rand).Int31) })
	t.Run("vectors", func(t *testing.T) { rowsModel(t, 5, 7, false, (*rand.Rand).Float32) })
	t.Run("records", func(t *testing.T) {
		rowsModel(t, 9, 13, false, func(rng *rand.Rand) byte { return byte(rng.Intn(256)) })
	})
}

// rowsModel replays seeded random Appends, writes through Ref when
// rewrite is set, and Freezes on a table of rows width long, per to a
// page, against a plain slice of rows; every frozen view is held to the
// copy it was frozen from.
func rowsModel[T comparable](t *testing.T, width, per int, rewrite bool, elem func(*rand.Rand) T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRows[T](width, per)
		var model [][]T
		type frozen struct {
			v    RowsView[T]
			want [][]T
		}
		var kept []frozen
		for op := 0; op < 3000; op++ {
			switch x := rng.Intn(100); {
			case x < 30 || !rewrite && x < 95:
				row := r.Append()
				for j := range row {
					row[j] = elem(rng)
				}
				model = append(model, slices.Clone(row))
			case x < 95 && len(model) > 0:
				i, j, v := rng.Intn(len(model)), rng.Intn(width), elem(rng)
				r.Ref(i)[j] = v
				model[i][j] = v
			default:
				want := make([][]T, len(model))
				for i := range model {
					want[i] = slices.Clone(model[i])
				}
				kept = append(kept, frozen{r.Freeze(), want})
			}
		}
		kept = append(kept, frozen{r.RowsView, model})
		for k, f := range kept {
			if f.v.Len() != len(f.want) {
				t.Fatalf("seed %d: view %d of %d: Len %d, want %d", seed, k, len(kept), f.v.Len(), len(f.want))
			}
			for i, want := range f.want {
				if got := f.v.Row(i); !slices.Equal(got, want) {
					t.Fatalf("seed %d: view %d of %d: row %d reads %v, want %v", seed, k, len(kept), i, got, want)
				}
			}
		}
	}
}

// TestFreezeCopiesTheDirectoryOnly: a Paged Freeze allocates one
// directory of exactly its length, and the first write after it copies
// one page, the next writes into that page none; a Rows Freeze allocates
// nothing, and the first write after it copies the directory and one
// page.
func TestFreezeCopiesTheDirectoryOnly(t *testing.T) {
	var p Paged[[]byte]
	p.Grow(100 * PageSize)
	var snap Pages[[]byte]
	if a := testing.AllocsPerRun(10, func() { snap = p.Freeze() }); a != 1 {
		t.Fatalf("Freeze made %v allocations, want 1 (the directory)", a)
	}
	if len(snap.dir) != cap(snap.dir) || len(snap.dir) != 100 {
		t.Fatalf("frozen directory len %d cap %d, want 100 without slack", len(snap.dir), cap(snap.dir))
	}
	first := testing.AllocsPerRun(1, func() { p.Freeze(); *p.Ref(5) = nil })
	if first != 2 {
		t.Fatalf("Freeze then one write made %v allocations, want 2 (directory, page)", first)
	}
	if a := testing.AllocsPerRun(10, func() { *p.Ref(PageSize - 1) = nil }); a != 0 {
		t.Fatalf("a write into a claimed page made %v allocations", a)
	}
	if snap.dir[0] == p.dir[0] || snap.dir[1] != p.dir[1] {
		t.Fatal("the written page is shared, or an untouched one was copied")
	}

	// A table of rows appended and never rewritten — vectors, word
	// records — freezes without copying anything: the writer clones the
	// directory at its first page copy after a Freeze, not in it.
	rows := NewRows[float32](4, 8)
	for range 100 * 8 {
		rows.Append()
	}
	var view RowsView[float32]
	if a := testing.AllocsPerRun(10, func() { view = rows.Freeze() }); a != 0 {
		t.Fatalf("freezing an append-only table made %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(1, func() { rows.Freeze(); rows.Ref(5)[0] = 1 }); a != 3 {
		t.Fatalf("Freeze then one write made %v allocations, want 3 (directory, page, its header)", a)
	}
	if view.Row(5)[0] != 0 || view.dir[0] == rows.dir[0] || view.dir[1] != rows.dir[1] || &view.dir[1] == &rows.dir[1] {
		t.Fatal("the written row reached a view, or the written page or the directory is shared, or an untouched page was copied")
	}
}

// TestPagesReadersWhileWriterWrites: readers scan a frozen Pages and a
// frozen RowsView while the writer rewrites every element and row and
// appends past them; run under -race.
func TestPagesReadersWhileWriterWrites(t *testing.T) {
	const n = 1000
	var p Paged[int]
	r := NewRows[int32](2, 8)
	for i := 0; i < n; i++ {
		p.Append(i)
		r.Append()[1] = int32(i)
	}
	v, rv := p.Freeze(), r.Freeze()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := 0; i < n; i++ {
					if v.At(i) != i || rv.Row(i)[1] != int32(i) {
						errs <- fmt.Errorf("element or row %d changed under a reader", i)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		*p.Ref(i) = -i
		p.Append(n + i)
		r.Ref(i)[1] = int32(-i)
		r.Append()[1] = int32(n + i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
