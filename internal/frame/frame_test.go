package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

type attr struct{ Name, Value string }

var sampleAttrs = []attr{{"name", "canon powershot a540"}, {"", "résumé 履歴書"}, {"empty", ""}}

// writeSample encodes one of every field, an attribute block and — when
// inner is set — an embedded stream written through the outer Writer.
func writeSample(w *Writer, inner bool) error {
	w.Magic("MAGIC\x01\n")
	w.U8(0xfe)
	w.Bool(true)
	w.U32(0xdeadbeef)
	w.U64(1<<63 + 5)
	w.F32(-0.375)
	w.F64(1e-300)
	w.Str("")
	w.Str("héllo")
	PutAttrs(w, sampleAttrs)
	PutAttrs(w, []attr(nil))
	if inner {
		in := NewWriter(w)
		in.Str("embedded")
		in.U64(42)
		if err := in.Trailer(); err != nil {
			return err
		}
	}
	w.U8(9)
	return w.Trailer()
}

// readSample decodes writeSample's stream field by field through any of
// the two read disciplines and reports the first difference.
type fieldReader interface {
	Magic(string)
	U8() uint8
	U32() uint32
	U64() uint64
	Str() string
	Err() error
}

func checkHead(t *testing.T, r fieldReader, boolean func() bool, f32 func() float32, f64 func() float64, attrs func() []attr) {
	t.Helper()
	r.Magic("MAGIC\x01\n")
	if v := r.U8(); v != 0xfe {
		t.Fatalf("u8 = %#x", v)
	}
	if !boolean() {
		t.Fatal("bool = false")
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("u32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63+5 {
		t.Fatalf("u64 = %#x", v)
	}
	if v := f32(); v != -0.375 {
		t.Fatalf("f32 = %v", v)
	}
	if v := f64(); v != 1e-300 {
		t.Fatalf("f64 = %v", v)
	}
	if a, b := r.Str(), r.Str(); a != "" || b != "héllo" {
		t.Fatalf("strs = %q %q", a, b)
	}
	got := attrs()
	if len(got) != len(sampleAttrs) {
		t.Fatalf("attrs = %v", got)
	}
	for i := range got {
		if got[i] != sampleAttrs[i] {
			t.Fatalf("attr %d = %v", i, got[i])
		}
	}
	if none := attrs(); none == nil || len(none) != 0 {
		t.Fatalf("an empty block decoded as %#v, want empty and non-nil", none)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRoundTripBothDisciplines(t *testing.T) {
	var stream bytes.Buffer
	if err := writeSample(NewWriter(&stream), false); err != nil {
		t.Fatal(err)
	}
	mem := Buffer(0)
	if err := writeSample(mem, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), mem.Buf()) {
		t.Fatal("the streaming and the in-memory Writer encode differently")
	}
	if int(mem.Offset()) != len(mem.Buf()) {
		t.Fatalf("offset %d of %d bytes", mem.Offset(), len(mem.Buf()))
	}

	r := NewReader(bytes.NewReader(stream.Bytes()))
	checkHead(t, r, r.Bool, r.F32, r.F64, func() []attr { return ReadAttrs[attr](r) })
	if v := r.U8(); v != 9 {
		t.Fatalf("tail u8 = %d", v)
	}
	if r.CheckTrailer(); r.Err() != nil {
		t.Fatal(r.Err())
	}

	body, err := Verify(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c := At(body, 0)
	checkHead(t, &c,
		func() bool { return c.U8() != 0 },
		func() float32 { return NewReader(bytes.NewReader(c.Take(4))).F32() },
		func() float64 { return NewReader(bytes.NewReader(c.Take(8))).F64() },
		func() []attr { return TakeAttrs[attr](&c) })
	if v := c.U8(); v != 9 || c.Rest() != 0 || c.Offset() != len(body) {
		t.Fatalf("tail u8 = %d, rest %d", v, c.Rest())
	}
}

// TestEmbeddedStreamCountsTowardOuterTrailer: an inner stream written
// and read through the outer one is covered by both trailers, and the
// outer Reader stops exactly where the inner one did.
func TestEmbeddedStreamCountsTowardOuterTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(NewWriter(&buf), true); err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte) error {
		r := NewReader(bufio.NewReader(bytes.NewReader(data)))
		r.Magic("MAGIC\x01\n")
		r.U8()
		r.Bool()
		r.U32()
		r.U64()
		r.F32()
		r.F64()
		r.Str()
		r.Str()
		ReadAttrs[attr](r)
		ReadAttrs[attr](r)
		in := NewReader(r)
		s, v := in.Str(), in.U64()
		if in.CheckTrailer(); in.Err() != nil {
			return in.Err()
		}
		tail := r.U8()
		if r.CheckTrailer(); r.Err() == nil && (s != "embedded" || v != 42 || tail != 9) {
			t.Fatalf("a stream that verified decoded as %q %d, then %d", s, v, tail)
		}
		return r.Err()
	}
	if err := decode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(buf.Bytes(), []byte("embedded"))
	mut := append([]byte(nil), buf.Bytes()...)
	mut[at] ^= 1
	if decode(mut) == nil {
		t.Fatal("a flipped bit inside the embedded stream went unnoticed")
	}
	// A flipped bit in the inner trailer itself.
	mut = append([]byte(nil), buf.Bytes()...)
	mut[at+len("embedded")+8] ^= 1
	if decode(mut) == nil {
		t.Fatal("a flipped bit in the embedded trailer went unnoticed")
	}
}

// TestWriterEnforcesReaderBounds: what a reader would refuse is never
// sealed — the writer fails instead, and stays failed.
func TestWriterEnforcesReaderBounds(t *testing.T) {
	fits, over := strings.Repeat("x", MaxStr), strings.Repeat("x", MaxStr+1)
	for name, put := range map[string]func(w *Writer){
		"str":        func(w *Writer) { w.Str(over) },
		"attr value": func(w *Writer) { PutAttrs(w, []attr{{"a", "b"}, {"blob", over}}) },
		"attr name":  func(w *Writer) { PutAttrs(w, []attr{{over, ""}}) },
		"attr count": func(w *Writer) { PutAttrs(w, make([]attr, MaxAttrs+1)) },
	} {
		for _, w := range []*Writer{NewWriter(io.Discard), Buffer(0)} {
			w.U32(1)
			put(w)
			if w.Err() == nil {
				t.Fatalf("%s: written without complaint", name)
			}
			w.U32(2)
			if err := w.Trailer(); err == nil {
				t.Fatalf("%s: a failed writer sealed its stream", name)
			}
		}
	}
	w := Buffer(0)
	w.Str(fits)
	PutAttrs(w, []attr{{fits, fits}})
	if err := w.Trailer(); err != nil {
		t.Fatalf("values of exactly MaxStr bytes: %v", err)
	}
	body, err := Verify(w.Buf())
	if err != nil {
		t.Fatal(err)
	}
	c := At(body, 0)
	if s, a := c.Str(), TakeAttrs[attr](&c); c.Err() != nil || len(s) != MaxStr || len(a) != 1 {
		t.Fatalf("what the writer accepted the cursor refuses: %v", c.Err())
	}
	if err := CheckAttrs([]attr{{fits, fits}}); err != nil {
		t.Fatal(err)
	}
	if CheckAttrs([]attr{{"blob", over}}) == nil || CheckAttrs(make([]attr, MaxAttrs+1)) == nil {
		t.Fatal("CheckAttrs passed what PutAttrs refuses")
	}
}

// TestReadersRefuseBoundsBeforeAllocating feeds both disciplines counts
// no honest writer produces.
func TestReadersRefuseBoundsBeforeAllocating(t *testing.T) {
	for name, n := range map[string]uint32{"str": MaxStr + 1, "attrs": MaxAttrs + 1} {
		w := Buffer(0)
		w.U32(n)
		r := NewReader(bytes.NewReader(w.Buf()))
		c := At(w.Buf(), 0)
		if name == "str" {
			r.Str()
			c.Str()
		} else {
			ReadAttrs[attr](r)
			TakeAttrs[attr](&c)
		}
		if r.Err() == nil || errors.Is(r.Err(), io.ErrUnexpectedEOF) || c.Err() == nil {
			t.Fatalf("%s count %d: reader %v, cursor %v; want the bound named", name, n, r.Err(), c.Err())
		}
	}
	// A count within the bound but beyond the bytes at hand fails a
	// cursor without allocating for it.
	w := Buffer(0)
	w.U32(MaxAttrs)
	c := At(w.Buf(), 0)
	if allocs := testing.AllocsPerRun(10, func() { c = At(w.Buf(), 0); TakeAttrs[attr](&c) }); c.Err() == nil || allocs > 4 {
		t.Fatalf("a %d-attribute claim over 4 bytes: err=%v, %v allocs", MaxAttrs, c.Err(), allocs)
	}
}

// TestStickyErrorsYieldZeros: past the first failure every read is a
// no-op handing out zero values.
func TestStickyErrorsYieldZeros(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	c := At([]byte{1, 2, 3}, 0)
	if r.U32() != 0 || c.U32() != 0 || r.Err() == nil || c.Err() == nil {
		t.Fatal("a short read returned data")
	}
	first := r.Err()
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Bool() || ReadAttrs[attr](r) != nil || c.U8() != 0 || c.Str() != "" || c.Take(1) != nil || TakeAttrs[attr](&c) != nil {
		t.Fatal("a failed decoder kept decoding")
	}
	if r.CheckTrailer(); r.Err() != first {
		t.Fatalf("the first error %v was replaced by %v", first, r.Err())
	}
	if _, err := r.Read(make([]byte, 1)); err != first {
		t.Fatalf("Read after a failure: %v", err)
	}
}

func TestVerify(t *testing.T) {
	w := Buffer(0)
	w.Str("sealed")
	if err := w.Trailer(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(w.Buf()); cut++ {
		if _, err := Verify(w.Buf()[:cut]); err == nil {
			t.Fatalf("a %d-byte prefix verified", cut)
		}
	}
	if body, err := Verify(w.Buf()); err != nil || len(body) != len(w.Buf())-4 {
		t.Fatalf("verify: %v", err)
	}
}

// TestWriterSpillsAndReportsSinkErrors: a long stream reaches the sink in
// bounded pieces with the same bytes and trailer as the in-memory form,
// and a sink failure surfaces from Trailer.
func TestWriterSpillsAndReportsSinkErrors(t *testing.T) {
	var sink pieces
	w, mem := NewWriter(&sink), Buffer(0)
	for i := 0; i < 40000; i++ {
		w.U64(uint64(i))
		mem.U64(uint64(i))
		w.Str("spill")
		mem.Str("spill")
	}
	if w.Trailer() != nil || mem.Trailer() != nil || !bytes.Equal(sink.data, mem.Buf()) {
		t.Fatal("the spilled stream differs from the in-memory one")
	}
	if sink.calls < 2 || sink.largest > 2*spillAt {
		t.Fatalf("%d writes, the largest %d bytes", sink.calls, sink.largest)
	}
	if int(w.Offset()) != len(sink.data) {
		t.Fatalf("offset %d of %d bytes", w.Offset(), len(sink.data))
	}

	boom := errors.New("disk full")
	w = NewWriter(failing{boom})
	for i := 0; i < 40000; i++ {
		w.U64(uint64(i))
	}
	if err := w.Trailer(); !errors.Is(err, boom) {
		t.Fatalf("trailer over a failing sink: %v", err)
	}
}

type pieces struct {
	data           []byte
	calls, largest int
}

func (p *pieces) Write(b []byte) (int, error) {
	p.data = append(p.data, b...)
	p.calls++
	p.largest = max(p.largest, len(b))
	return len(b), nil
}

type failing struct{ err error }

func (f failing) Write([]byte) (int, error) { return 0, f.err }

// TestReaderNeverReadsAhead: an unbuffered Reader asks its source for
// exactly the fields it decodes, embedded stream included: the byte after
// the trailer is still there for whoever reads next.
func TestReaderNeverReadsAhead(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(NewWriter(&buf), true); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(append(buf.Bytes(), "next"...))
	r := NewReader(src)
	r.Magic("MAGIC\x01\n")
	r.U8()
	r.Bool()
	r.U32()
	r.U64()
	r.F32()
	r.F64()
	r.Str()
	r.Str()
	ReadAttrs[attr](r)
	ReadAttrs[attr](r)
	in := NewReader(r)
	in.Str()
	in.U64()
	in.CheckTrailer()
	r.U8()
	if r.CheckTrailer(); r.Err() != nil || in.Err() != nil {
		t.Fatal(r.Err(), in.Err())
	}
	if rest, _ := io.ReadAll(src); string(rest) != "next" {
		t.Fatalf("%q is left in the source, want %q", rest, "next")
	}
}
