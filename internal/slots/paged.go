package slots

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
