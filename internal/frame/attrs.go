package frame

import "fmt"

// The attribute block — u32 count, then count × {str name, str value} —
// is the record shape three formats share: the ERSNAP entity loop, the
// WAL insert payload and the ERSEG attrs section. This package imports
// nothing but the standard library, so the block is generic over any
// type shaped like entity.Attribute.
type Attr interface{ ~struct{ Name, Value string } }

type pair = struct{ Name, Value string }

// CheckAttrs reports what PutAttrs would refuse: too many attributes, or
// a name or value longer than MaxStr. It is the check an entity passes
// where it enters the system, so that nothing is acknowledged which could
// not later be persisted.
func CheckAttrs[A Attr](attrs []A) error {
	if len(attrs) > MaxAttrs {
		return errAttrBound(len(attrs))
	}
	for _, a := range attrs {
		if p := pair(a); len(p.Name) > MaxStr || len(p.Value) > MaxStr {
			return errStrBound(max(len(p.Name), len(p.Value)))
		}
	}
	return nil
}

// AttrsLen is the encoded size of the block in bytes.
func AttrsLen[A Attr](attrs []A) int {
	n := 4
	for _, a := range attrs {
		n += 8 + len(pair(a).Name) + len(pair(a).Value)
	}
	return n
}

// PutAttrs writes the block, or fails the Writer where CheckAttrs fails.
func PutAttrs[A Attr](w *Writer, attrs []A) {
	if len(attrs) > MaxAttrs {
		w.fail(errAttrBound(len(attrs)))
		return
	}
	w.U32(uint32(len(attrs)))
	for _, a := range attrs {
		w.Str(pair(a).Name)
		w.Str(pair(a).Value)
	}
}

// ReadAttrs reads one block from a stream.
func ReadAttrs[A Attr](r *Reader) []A {
	n := r.U32()
	if r.err == nil && n > MaxAttrs {
		r.err = errAttrBound(int(n))
	}
	if r.err != nil {
		return nil
	}
	attrs := make([]A, n)
	for i := range attrs {
		if attrs[i] = A(pair{Name: r.Str(), Value: r.Str()}); r.err != nil {
			return nil
		}
	}
	return attrs
}

// attrCount reads a resident block's count. One the bytes left cannot
// hold — every pair has at least its two length prefixes — fails before
// anything is allocated for it.
func attrCount(c *Cursor) int {
	n := c.U32()
	if c.err == nil && n > MaxAttrs {
		c.err = errAttrBound(int(n))
	}
	if int(n) > c.Rest()/8 {
		c.Take(8 * int(n))
	}
	return int(n)
}

// TakeAttrs decodes one block from resident bytes.
func TakeAttrs[A Attr](c *Cursor) []A {
	n := attrCount(c)
	if c.err != nil {
		return nil
	}
	attrs := make([]A, n)
	for i := range attrs {
		if attrs[i] = A(pair{Name: c.Str(), Value: c.Str()}); c.err != nil {
			return nil
		}
	}
	return attrs
}

// SkipAttrs walks one resident block, checking every bound and
// materialising nothing: a format's validation pass.
func SkipAttrs(c *Cursor) {
	for n := 2 * attrCount(c); n > 0 && c.err == nil; n-- {
		c.str()
	}
}

func errAttrBound(n int) error {
	return fmt.Errorf("frame: %d attributes exceed the bound of %d", n, MaxAttrs)
}
