package online

import (
	"bytes"
	"testing"
)

// snapshotBytes renders a small populated resolver for corruption tests.
func snapshotBytes(t testing.TB, cfg Config) []byte {
	t.Helper()
	r := mustOpen(t, cfg, 1)
	for _, txt := range corpus {
		r.Insert(attrsText(txt))
	}
	r.Delete(1) // a gap in the id sequence must survive corruption checks
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestLoadRejectsEveryTruncation feeds Load every strict prefix of a
// valid snapshot: each one must fail cleanly — no panic, no partially
// loaded resolver — and the full bytes must still load.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			full := snapshotBytes(t, cfg)
			for cut := 0; cut < len(full); cut++ {
				if r, err := Load(bytes.NewReader(full[:cut]), Config{}, 1); err == nil {
					t.Fatalf("prefix of %d/%d bytes loaded without error (%d entities)",
						cut, len(full), r.Len())
				}
			}
			r, err := Load(bytes.NewReader(full), Config{}, 1)
			if err != nil {
				t.Fatalf("full snapshot failed: %v", err)
			}
			if r.Len() != len(corpus)-1 {
				t.Fatalf("full snapshot loaded %d entities, want %d", r.Len(), len(corpus)-1)
			}
		})
	}
}

// TestLoadRejectsEveryBitFlip corrupts each byte of a valid snapshot in
// turn: the CRC trailer (or an earlier structural check) must reject
// every single one — silent acceptance of a damaged snapshot is the
// failure mode this format exists to prevent.
func TestLoadRejectsEveryBitFlip(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			full := snapshotBytes(t, cfg)
			for off := 0; off < len(full); off++ {
				mut := append([]byte(nil), full...)
				mut[off] ^= 0xFF
				if r, err := Load(bytes.NewReader(mut), Config{}, 1); err == nil {
					t.Fatalf("byte %d/%d flipped, snapshot still loaded (%d entities)",
						off, len(full), r.Len())
				}
			}
		})
	}
}

// TestLoadRejectsTrailingGarbage: extra bytes after the trailer mean the
// stream is not a snapshot we wrote.
func TestLoadTolerantOfTrailingBytes(t *testing.T) {
	// Load reads a framed prefix of the stream by design (erserve streams
	// snapshots over HTTP where the reader may be wrapped); bytes past
	// the trailer are ignored, and the checksum still guards everything
	// the resolver was built from.
	full := snapshotBytes(t, testConfigs()["epsjoin"])
	r, err := Load(bytes.NewReader(append(append([]byte(nil), full...), "junk"...)), Config{}, 1)
	if err != nil {
		t.Fatalf("framed load with trailing bytes: %v", err)
	}
	if r.Len() != len(corpus)-1 {
		t.Fatalf("loaded %d entities", r.Len())
	}
}

// FuzzLoad throws arbitrary bytes at Load: it must never panic, and
// anything it does accept must round-trip through Save.
func FuzzLoad(f *testing.F) {
	for _, cfg := range testConfigs() {
		full := snapshotBytes(f, cfg)
		f.Add(full)
		f.Add(full[:len(full)/2])
		tail := append([]byte(nil), full...)
		tail[len(tail)-2] ^= 0x01
		f.Add(tail)
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte("ERSNAP\x02\n")) // the retired v2 magic must be rejected cleanly
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data), Config{}, 1)
		if err != nil {
			return
		}
		// Whatever Load accepted must be internally consistent: queries
		// and a re-save must work.
		_ = r.Query(attrsText("probe"), QueryOptions{})
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatalf("accepted snapshot cannot re-save: %v", err)
		}
	})
}
