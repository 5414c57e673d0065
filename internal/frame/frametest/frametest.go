// Package frametest is the one corruption suite every persisted format
// registers with: every truncation, every single-bit flip, the
// trailing-bytes policy and a fuzz body. Only tests import it.
package frametest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"erfilter/internal/frame"
)

// Format describes one persisted format to the suite.
type Format struct {
	// Valid holds well-formed streams by name; each goes through every
	// check, as a subtest of that name. Seeds are further fuzz inputs:
	// bare magics, retired versions.
	Valid map[string][]byte
	Seeds [][]byte
	// Load decodes data the way production does. On success it returns a
	// step that exercises and re-encodes what was loaded: non-nil bytes
	// from it must equal the bytes Load consumed (the format is then
	// canonical), nil bytes skip that comparison.
	Load func(data []byte) (resave func() ([]byte, error), err error)
	// TrailingOK marks a self-delimiting format, whose reader consumes one
	// stream and leaves what follows alone; any other must reject
	// trailing bytes.
	TrailingOK bool
	// Unsealed marks a format without a checksum of its own (a WAL record
	// payload: the record frame seals it). A flipped bit may then still
	// decode; it must do so without panicking, and re-save.
	Unsealed bool
}

func (f Format) names() []string {
	names := make([]string, 0, len(f.Valid))
	for name := range f.Valid {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (f Format) each(t *testing.T, check func(t *testing.T, valid []byte)) {
	for _, name := range f.names() {
		t.Run(name, func(t *testing.T) { check(t, f.Valid[name]) })
	}
}

// resaves holds a successful Load to its promise.
func (f Format) resaves(t *testing.T, what string, data []byte, resave func() ([]byte, error)) {
	t.Helper()
	out, err := resave()
	if err != nil {
		t.Fatalf("%s loaded but cannot re-save: %v", what, err)
	}
	if f.TrailingOK && len(out) <= len(data) {
		data = data[:len(out)]
	}
	if out != nil && !bytes.Equal(out, data) {
		t.Fatalf("%s loaded but re-saved differently: %d bytes in, %d out", what, len(data), len(out))
	}
}

// Truncations feeds Load every strict prefix of each valid stream: each
// must fail cleanly, and the whole stream must load and re-save.
func (f Format) Truncations(t *testing.T) {
	f.each(t, func(t *testing.T, valid []byte) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := f.Load(valid[:cut:cut]); err == nil {
				t.Fatalf("prefix of %d/%d bytes loaded", cut, len(valid))
			}
		}
		resave, err := f.Load(valid)
		if err != nil {
			t.Fatalf("the whole stream failed to load: %v", err)
		}
		f.resaves(t, "the whole stream", valid, resave)
	})
}

// BitFlips flips every single bit of each valid stream in turn. A sealed
// format must reject every one: silent acceptance of a damaged stream is
// the failure the trailer exists to prevent. Each flip is then tried again
// with the stream's last four bytes recomputed as a frame trailer —
// damage the checksum cannot see — which the structural validation behind
// it must refuse, or load into something that re-saves. (On a format that
// does not end in a frame trailer this is one more corruption to refuse.)
func (f Format) BitFlips(t *testing.T) {
	f.each(t, func(t *testing.T, valid []byte) {
		mut := make([]byte, len(valid))
		for bit := 0; bit < 8*len(valid); bit++ {
			copy(mut, valid)
			mut[bit/8] ^= 1 << (bit % 8)
			if resave, err := f.Load(mut); err == nil && !f.Unsealed {
				t.Fatalf("byte %d/%d bit %d flipped, stream still loaded", bit/8, len(valid), bit%8)
			} else if err == nil {
				f.resaves(t, "a flipped stream", mut, resave)
			}
			if body := len(mut) - 4; !f.Unsealed && bit/8 < body {
				binary.LittleEndian.PutUint32(mut[body:], frame.Checksum(mut[:body]))
				if resave, err := f.Load(mut); err == nil {
					f.resaves(t, fmt.Sprintf("byte %d bit %d flipped and re-sealed: the stream", bit/8, bit%8), mut, resave)
				}
			}
		}
	})
}

// TrailingBytes appends junk to each valid stream and holds Load to the
// format's declared policy.
func (f Format) TrailingBytes(t *testing.T) {
	f.each(t, func(t *testing.T, valid []byte) {
		for _, junk := range []string{"\x00", "junk", string(valid)} {
			data := append(append([]byte(nil), valid...), junk...)
			resave, err := f.Load(data)
			if (err == nil) != f.TrailingOK {
				t.Fatalf("%d trailing bytes: err=%v, self-delimiting=%v", len(junk), err, f.TrailingOK)
			}
			if err == nil {
				f.resaves(t, "a stream with trailing bytes", data, resave)
			}
		}
	})
}

// Corruption runs the three deterministic checks as subtests.
func (f Format) Corruption(t *testing.T) {
	t.Run("truncation", f.Truncations)
	t.Run("bitflip", f.BitFlips)
	t.Run("trailing", f.TrailingBytes)
}

// Fuzz seeds fz from the formats — each valid stream whole, halved and
// with a bit flipped near its end, the extra seeds, and nothing at all —
// then throws arbitrary bytes at every Load: none may panic, and whatever
// one accepts must re-save.
func Fuzz(fz *testing.F, formats ...Format) {
	for _, f := range formats {
		for _, name := range f.names() {
			valid := f.Valid[name]
			flipped := append([]byte(nil), valid...)
			flipped[len(flipped)-2] ^= 0x01
			for _, seed := range [][]byte{valid, valid[:len(valid)/2], flipped} {
				fz.Add(seed)
			}
		}
		for _, seed := range f.Seeds {
			fz.Add(seed)
		}
	}
	fz.Add([]byte{})
	fz.Fuzz(func(t *testing.T, data []byte) {
		for _, f := range formats {
			in := append([]byte(nil), data...) // a resident decoder may keep slices of its input
			if resave, err := f.Load(in); err == nil {
				f.resaves(t, "a fuzzed stream", in, resave)
			}
		}
	})
}
