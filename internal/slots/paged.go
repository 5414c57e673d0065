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

// RowPage is the number of rows in one page of a Rows table. Eight
// level-0 link rows of an M = 16 HNSW graph (33 int32 each) are 1 056
// bytes, so the first write after a Freeze into one of them copies about
// a kilobyte, and a directory entry stands for eight rows.
const RowPage = 8

// RowsView is a Rows table at one instant: a directory of pages of
// RowPage rows, each width int32 long. Rows.Freeze returns one that later
// writes never touch, so any number of goroutines may read it.
type RowsView struct {
	dir   []*[]int32
	width int
	n     int
}

// Len returns the number of rows.
func (v *RowsView) Len() int { return v.n }

// Row returns row i, below Len, which the caller must not write: the
// writer may be appending into the same page beyond it.
func (v *RowsView) Row(i int) []int32 {
	if uint(i) >= uint(v.n) {
		panic("slots: row index out of range")
	}
	off := int(uint(i)%RowPage) * v.width
	return (*v.dir[uint(i)/RowPage])[off : off+v.width : off+v.width]
}

// Rows is a copy-on-write table of fixed-width int32 rows, paged as Paged
// is: Freeze publishes it in O(pages), the first write after a Freeze
// into a row a published view can read copies the row's page, and an
// appended row lands beyond every published length. A Rows is
// single-writer; its frozen views may be read meanwhile.
type Rows struct {
	RowsView
	owners
	pub int // Len at the last Freeze: no view reads a row at or beyond it
}

// NewRows returns an empty table of rows of width int32.
func NewRows(width int) Rows { return Rows{RowsView: RowsView{width: width}} }

// Append adds a zero row and returns it for writing until the next Freeze.
func (r *Rows) Append() []int32 {
	if r.n%RowPage == 0 {
		page := make([]int32, RowPage*r.width)
		r.dir = append(r.dir, &page)
		r.own = append(r.own, r.gen)
	}
	r.n++
	return r.Row(r.n - 1)
}

// Ref returns row i, below Len, for writing until the next Freeze,
// copying its page first when the page still belongs to a published view
// that can read the row.
func (r *Rows) Ref(i int) []int32 {
	if pg := uint(i) / RowPage; uint(i) < uint(r.pub) && r.own[pg] != r.gen {
		page := slices.Clone(*r.dir[pg])
		r.dir[pg] = &page
		r.own[pg] = r.gen
	}
	return r.Row(i)
}

// Freeze returns the table as it is now, which later writes do not touch.
// It copies the page directory only.
func (r *Rows) Freeze() RowsView {
	r.gen++
	r.pub = r.n
	return RowsView{dir: slices.Clone(r.dir), width: r.width, n: r.n}
}
