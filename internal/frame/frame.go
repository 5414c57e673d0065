// Package frame is the one binary codec under every persisted format of
// this repository (DESIGN.md §16): little-endian fixed-width fields,
// strings as a u32 length plus at most MaxStr bytes, attribute blocks as
// a u32 count of at most MaxAttrs {name, value} pairs, and a sealed
// stream ending in the CRC-32C of every byte before it. A Writer
// enforces the bounds the readers enforce, so nothing sealed here is
// refused on the way back in. Reader decodes an io.Reader incrementally;
// Cursor decodes resident bytes in place once Verify has checked their
// trailer. All three carry a sticky error: after the first failure every
// call is a no-op handing out zeros, so a decoder checks Err where it is
// about to trust a value — at least once per iteration of any loop a
// decoded count bounds.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// MaxStr bounds every string: a reader refuses a longer one before
	// allocating for it, a writer refuses to write one.
	MaxStr = 1 << 24
	// MaxAttrs bounds the attributes of one entity, on the same terms.
	MaxAttrs = 1 << 20

	spillAt = 1 << 16 // bytes a streaming Writer gathers per write to its sink
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	zeros      [8]byte
)

// Checksum is the CRC-32C of p — what every trailer and every WAL record
// frame holds — and Update extends a running one.
func Checksum(p []byte) uint32           { return crc32.Checksum(p, castagnoli) }
func Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// Writer encodes fields into a buffer. The streaming form (NewWriter)
// spills it to a sink whenever it fills; the in-memory form (Buffer) only
// appends, and Buf reads it back. A Writer is an io.Writer: a format
// embedding another's stream hands itself to the inner format's writer,
// and the inner bytes count toward the outer trailer.
type Writer struct {
	dst     io.Writer // nil in the in-memory form
	buf     []byte
	crc     uint32 // of the bytes already spilled
	spilled int64
	err     error
}

// NewWriter streams to dst; all of it has arrived once Trailer returns.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{dst: dst, buf: make([]byte, 0, spillAt+spillAt/8)}
}

// Buffer is the in-memory form, with room for n bytes; Buf is what it has
// encoded so far.
func Buffer(n int) *Writer    { return &Writer{buf: make([]byte, 0, n)} }
func (w *Writer) Buf() []byte { return w.buf }

// Err is the first failure — the sink's, or a bound exceeded — and Offset
// the number of bytes written so far.
func (w *Writer) Err() error    { return w.err }
func (w *Writer) Offset() int64 { return w.spilled + int64(len(w.buf)) }

// spill hands a full (or, forced, any) buffer to the sink. A failed
// Writer drops it instead, which bounds the memory it holds.
func (w *Writer) spill(force bool) {
	if w.dst == nil || (!force && len(w.buf) < spillAt) {
		return
	}
	if w.err == nil {
		w.crc = Update(w.crc, w.buf)
		_, w.err = w.dst.Write(w.buf)
	}
	w.spilled += int64(len(w.buf))
	w.buf = w.buf[:0]
}

func (w *Writer) U8(v uint8)    { w.buf = append(w.buf, v); w.spill(false) }
func (w *Writer) U32(v uint32)  { w.buf = le.AppendUint32(w.buf, v); w.spill(false) }
func (w *Writer) U64(v uint64)  { w.buf = le.AppendUint64(w.buf, v); w.spill(false) }
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *Writer) Magic(m string) { w.buf = append(w.buf, m...); w.spill(false) }

// Bool writes one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes a length-prefixed string, or fails the Writer on one longer
// than MaxStr.
func (w *Writer) Str(s string) {
	if len(s) > MaxStr {
		w.fail(errStrBound(len(s)))
		return
	}
	w.buf = append(le.AppendUint32(w.buf, uint32(len(s))), s...)
	w.spill(false)
}

// Bytes writes p as Str writes a string; Cursor.Bytes reads it back.
func (w *Writer) Bytes(p []byte) {
	if len(p) > MaxStr {
		w.fail(errStrBound(len(p)))
		return
	}
	w.buf = append(le.AppendUint32(w.buf, uint32(len(p))), p...)
	w.spill(false)
}

// Write appends p raw: a blob whose length the caller framed, or an
// embedded stream.
func (w *Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if w.spill(false); w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Trailer seals the stream with the checksum of every byte written so
// far, spills what is buffered, and returns the Writer's first error.
func (w *Writer) Trailer() error {
	w.buf = le.AppendUint32(w.buf, Update(w.crc, w.buf))
	w.spill(true)
	return w.err
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Reader decodes a stream incrementally, checksumming every byte it
// consumes. It never reads past the field it is asked for, so its source
// may hold more than this stream (give a raw file or socket a
// bufio.Reader first). A Reader is an io.Reader — the source of an
// embedded stream's Reader — and what passes through counts toward its
// checksum.
type Reader struct {
	src io.Reader
	crc uint32
	err error
	tmp [8]byte
}

func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// Err is the first failure: a short read, a bound exceeded, a wrong magic,
// a byte that is no bool, a checksum mismatch.
func (r *Reader) Err() error { return r.err }

func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.src.Read(p)
	r.crc = Update(r.crc, p[:n])
	return n, err
}

// fill reads exactly len(p) bytes, or fails the Reader and returns zeros.
func (r *Reader) fill(p []byte) []byte {
	if r.err == nil {
		if _, err := io.ReadFull(r.src, p); err != nil {
			r.err = fmt.Errorf("frame: truncated stream: %w", err)
		} else {
			r.crc = Update(r.crc, p)
			return p
		}
	}
	clear(p)
	return p
}

func (r *Reader) U8() uint8      { return r.fill(r.tmp[:1])[0] }
func (r *Reader) U32() uint32    { return le.Uint32(r.fill(r.tmp[:4])) }
func (r *Reader) U64() uint64    { return le.Uint64(r.fill(r.tmp[:8])) }
func (r *Reader) F32() float32   { return math.Float32frombits(r.U32()) }
func (r *Reader) F64() float64   { return math.Float64frombits(r.U64()) }
func (r *Reader) Magic(m string) { checkMagic(r.fill(make([]byte, len(m))), m, &r.err) }

// Bool fails the Reader on any byte but 0 and 1, so that what loads
// re-encodes to the bytes it came from.
func (r *Reader) Bool() bool {
	b := r.U8()
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("frame: byte %#x is not a bool", b)
	}
	return b == 1
}

func (r *Reader) Str() string {
	n := r.U32()
	if r.err == nil && n > MaxStr {
		r.err = errStrBound(int(n))
	}
	if r.err == nil {
		if p := r.fill(make([]byte, n)); r.err == nil {
			return string(p)
		}
	}
	return ""
}

// CheckTrailer consumes the four checksum bytes — outside the running
// sum — and fails the Reader unless they match everything read so far.
func (r *Reader) CheckTrailer() {
	if want := r.crc; r.err == nil {
		if got := r.U32(); r.err == nil && got != want {
			r.err = errChecksum(got, want)
		}
	}
}

// Verify checks the trailer of a resident sealed stream and returns its
// body. Resident formats call it before they parse a single field, so a
// Cursor only ever decodes bytes the checksum has vouched for.
func Verify(data []byte) (body []byte, err error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("frame: %d bytes cannot hold a checksum trailer", len(data))
	}
	body = data[:len(data)-4]
	if got, want := le.Uint32(data[len(body):]), Checksum(body); got != want {
		return nil, errChecksum(got, want)
	}
	return body, nil
}

// Cursor decodes resident bytes in place: Take returns sub-slices of the
// data (of the mapping, for a mapped segment), not copies.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// At is a Cursor over data positioned at off.
func At(data []byte, off int) Cursor { return Cursor{data: data, off: off} }

// Err is the first failure: a read past the end, a bound exceeded, a
// wrong magic. Offset is the position of the next byte to decode, Rest
// how many are left.
func (c *Cursor) Err() error  { return c.err }
func (c *Cursor) Offset() int { return c.off }
func (c *Cursor) Rest() int   { return len(c.data) - c.off }

// Take returns the next n bytes, or fails the Cursor and returns nil when
// fewer remain.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.err = fmt.Errorf("frame: truncated stream at offset %d (+%d of %d)", c.off, n, len(c.data))
		return nil
	}
	c.off += n
	return c.data[c.off-n : c.off]
}

// fixed is Take for a field of n <= 8 bytes: zeros after a failure.
func (c *Cursor) fixed(n int) []byte {
	if p := c.Take(n); p != nil {
		return p
	}
	return zeros[:n]
}

func (c *Cursor) U8() uint8      { return c.fixed(1)[0] }
func (c *Cursor) U32() uint32    { return le.Uint32(c.fixed(4)) }
func (c *Cursor) U64() uint64    { return le.Uint64(c.fixed(8)) }
func (c *Cursor) Magic(m string) { checkMagic(c.Take(len(m)), m, &c.err) }

// Str decodes a length-prefixed string (a copy: it outlives the data).
func (c *Cursor) Str() string { return string(c.str()) }

// Bytes decodes a length-prefixed string in place: the result aliases
// the data.
func (c *Cursor) Bytes() []byte { return c.str() }

func (c *Cursor) str() []byte {
	n := c.U32()
	if c.err == nil && n > MaxStr {
		c.err = errStrBound(int(n))
	}
	return c.Take(int(n))
}

func checkMagic(got []byte, want string, err *error) {
	if *err == nil && string(got) != want {
		*err = fmt.Errorf("frame: bad magic %q, want %q", got, want)
	}
}

func errStrBound(n int) error {
	return fmt.Errorf("frame: string of %d bytes exceeds the %d-byte bound", n, MaxStr)
}

func errChecksum(stored, computed uint32) error {
	return fmt.Errorf("frame: checksum mismatch (stored %08x, computed %08x)", stored, computed)
}
