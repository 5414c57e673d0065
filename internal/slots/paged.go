package slots

import "slices"

// PageSize is the number of elements in one page of a paged array. A
// write after a Freeze copies the page it lands in, so a page is the unit
// a publish pays for: 16 posting-list or link headers are 384 bytes, 16
// bitmap words 128. An insert of some eighty tokens touches about as many
// pages of a sparse shard's header table.
const PageSize = 16

// Pages is a paged array at one instant: a directory of fixed-size pages
// and a length. Paged.Freeze returns one that later writes never touch,
// so any number of goroutines may read it.
type Pages[T any] struct {
	dir []*[PageSize]T
	n   int
}

// Len returns the number of elements.
func (p *Pages[T]) Len() int { return p.n }

// At returns element i, which must be below Len: the writer may be
// appending into the same page beyond it.
func (p *Pages[T]) At(i int) T {
	if uint(i) >= uint(p.n) {
		panic("slots: paged index out of range")
	}
	return p.dir[uint(i)/PageSize][uint(i)%PageSize]
}

// owners is the writer's record of which pages it may write in place:
// a page whose generation is the current one was copied, or made, since
// the last Freeze, so no published Pages shares it.
type owners struct {
	gen uint64   // bumped by every Freeze
	own []uint64 // page → the generation that copied or made it
}

// grow extends p to n elements, making the pages it needs. The new
// elements are zero: nothing ever wrote at or beyond p.n, whether or not
// a published Pages shares the page.
func (p *Pages[T]) grow(o *owners, n int) {
	for len(p.dir)*PageSize < n {
		p.dir = append(p.dir, new([PageSize]T))
		o.own = append(o.own, o.gen)
	}
	p.n = max(p.n, n)
}

// ref returns a pointer to element i in a page the writer owns, copying
// the page first when it still belongs to a published Pages.
func (p *Pages[T]) ref(o *owners, i int) *T {
	if uint(i) >= uint(p.n) {
		panic("slots: paged index out of range")
	}
	pg := uint(i) / PageSize
	if o.own[pg] != o.gen {
		page := *p.dir[pg]
		p.dir[pg] = &page
		o.own[pg] = o.gen
	}
	return &p.dir[pg][uint(i)%PageSize]
}

// freeze returns p as it is now: a copy of the directory, sharing every
// page, each of which the writer copies before it next writes an element
// the copy can read.
func (p *Pages[T]) freeze(o *owners) Pages[T] {
	o.gen++
	return Pages[T]{dir: append(make([]*[PageSize]T, 0, len(p.dir)), p.dir...), n: p.n}
}

// Paged is a copy-on-write array: Freeze publishes it in O(pages), and
// the first write after a Freeze into an element a published copy can
// read copies that element's page. An append never copies: it writes
// beyond every published length. The zero value is empty. A Paged is
// single-writer; its frozen Pages may be read meanwhile.
type Paged[T any] struct {
	Pages[T]
	owners
}

// Grow extends the array to n elements, the new ones zero; it never
// shrinks.
func (p *Paged[T]) Grow(n int) { p.grow(&p.owners, n) }

// Append adds v as the last element.
func (p *Paged[T]) Append(v T) {
	i := p.n
	p.grow(&p.owners, i+1)
	p.dir[i/PageSize][i%PageSize] = v
}

// Ref returns a pointer through which element i, below Len, may be
// written; it is valid until the next Freeze.
func (p *Paged[T]) Ref(i int) *T { return p.ref(&p.owners, i) }

// Freeze returns the array as it is now, which later writes do not touch.
// It copies the page directory only.
func (p *Paged[T]) Freeze() Pages[T] { return p.freeze(&p.owners) }

// RowsView is a Rows table at one instant: a directory of pages of per
// rows, each width elements long. Rows.Freeze returns one that later
// writes never touch, so any number of goroutines may read it.
type RowsView[T any] struct {
	dir   []*[]T
	width int
	per   uint32 // rows a page
	n     int
}

// Adopt returns the view whose row i is rows[i], width elements of it: a
// page a row, sharing the caller's elements, of which it copies none.
// The caller must not write them while the view is read.
func Adopt[T any](rows []*[]T, width int) RowsView[T] {
	return RowsView[T]{dir: rows, width: width, per: 1, n: len(rows)}
}

// Len returns the number of rows.
func (v *RowsView[T]) Len() int { return v.n }

// Width returns the number of elements in a row.
func (v *RowsView[T]) Width() int { return v.width }

// Row returns row i, below Len, which the caller must not write: the
// writer may be appending into the same page beyond it. The division is
// unsigned 32-bit, the cheapest divide there is: the HNSW beam takes a
// row per distance.
func (v *RowsView[T]) Row(i int) []T {
	if uint(i) >= uint(v.n) {
		panic("slots: row index out of range")
	}
	off := int(uint32(i)%v.per) * v.width
	return (*v.dir[uint32(i)/v.per])[off : off+v.width : off+v.width]
}

// Rows is a copy-on-write table of fixed-width rows in pages of a fixed
// number of rows, both set by NewRows. An appended row lands beyond every
// published length, so Freeze copies nothing: the view shares the page
// directory too. The first write after a Freeze into a row a published
// view can read copies the row's page, and the first such copy after a
// Freeze copies the directory the page is replaced in. A Rows is
// single-writer; its frozen views may be read meanwhile. The zero value
// has no rows and takes none.
type Rows[T any] struct {
	RowsView[T]
	owners
	pub    int  // Len at the last Freeze: no view reads a row at or beyond it
	shared bool // a view shares dir's array: the next page copy clones it
}

// NewRows returns an empty table of rows of width elements, per to a
// page.
func NewRows[T any](width, per int) Rows[T] {
	return Rows[T]{RowsView: RowsView[T]{width: width, per: uint32(per)}}
}

// Append adds a zero row and returns it for writing until the next Freeze.
func (r *Rows[T]) Append() []T {
	if uint32(r.n)%r.per == 0 {
		page := make([]T, int(r.per)*r.width)
		r.dir = append(r.dir, &page)
		r.own = append(r.own, r.gen)
	}
	r.n++
	return r.Row(r.n - 1)
}

// Ref returns row i, below Len, for writing until the next Freeze,
// copying its page first when the page still belongs to a published view
// that can read the row.
func (r *Rows[T]) Ref(i int) []T {
	if pg := uint32(i) / r.per; uint(i) < uint(r.pub) && r.own[pg] != r.gen {
		if r.shared {
			r.dir, r.shared = slices.Clone(r.dir), false
		}
		page := slices.Clone(*r.dir[pg])
		r.dir[pg] = &page
		r.own[pg] = r.gen
	}
	return r.Row(i)
}

// Freeze returns the table as it is now, which later writes do not touch.
// It allocates nothing.
func (r *Rows[T]) Freeze() RowsView[T] {
	r.gen++
	r.pub, r.shared = r.n, true
	return r.RowsView
}
