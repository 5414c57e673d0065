package segment

import (
	"fmt"
	"io"
	"strings"

	"erfilter/internal/frame"
)

// manMagic identifies a manifest and its format version.
const manMagic = "ERMAN\x01\n\x00"

const (
	// manifestName is the single live manifest file in a tier directory.
	manifestName = "MANIFEST"
	// manifestTemp is the staging name; a leftover temp is deleted at
	// open, exactly like checkpoint temps.
	manifestTemp = "MANIFEST.tmp"

	maxManMeta = 1 << 20
	maxManSegs = 1 << 20
	maxManTomb = 1 << 28
	// minManEntry is the encoded size of a segment entry with an empty
	// name. Counts are held against the bytes left as well as against
	// their bounds, so no count allocates more than the file could fill.
	minManEntry = 4 + 1 + 4 + 8 + 8 + 8
)

// manEntry describes one live segment in a manifest generation. The
// count, id range, and byte size are re-validated against the loaded
// segment at open, so manifest and segment cannot silently disagree.
type manEntry struct {
	Name  string
	Kind  Kind
	Count int
	MinID int64
	MaxID int64
	Bytes int64
}

// manifest is one decoded generation of the tier's state: the live
// segment set, the surviving tombstones, the id watermark no future
// assignment may fall below, and the caller's opaque metadata (the
// resolver pins its serialized Config here).
type manifest struct {
	Gen       uint64
	Watermark int64
	Meta      []byte
	Segs      []manEntry
	Tombs     []int64
}

// writeManifest encodes the manifest as one sealed frame stream.
func writeManifest(w io.Writer, m manifest) error {
	b := frame.NewWriter(w)
	b.Magic(manMagic)
	b.U64(m.Gen)
	b.U64(uint64(m.Watermark))
	b.U32(uint32(len(m.Meta)))
	b.Write(m.Meta)
	b.U32(uint32(len(m.Segs)))
	for _, e := range m.Segs {
		b.Str(e.Name)
		b.U8(uint8(e.Kind))
		b.U32(uint32(e.Count))
		b.U64(uint64(e.MinID))
		b.U64(uint64(e.MaxID))
		b.U64(uint64(e.Bytes))
	}
	b.U32(uint32(len(m.Tombs)))
	for _, id := range m.Tombs {
		b.U64(uint64(id))
	}
	return b.Trailer()
}

// loadManifest decodes and fully validates a manifest stream: CRC
// first, then magic, bounded sections, well-formed unique segment
// names, consistent per-segment ranges, and strictly ascending
// tombstones. Cross-file invariants (each tombstone names a stored
// entity, entry metadata matches the segment file) are checked by the
// tier once the segments themselves are loaded.
func loadManifest(data []byte) (manifest, error) {
	var m manifest
	body, err := frame.Verify(data)
	if err != nil {
		return m, fmt.Errorf("segment: manifest: %w", err)
	}
	c := frame.At(body, 0)
	c.Magic(manMagic)
	m.Gen = c.U64()
	m.Watermark = int64(c.U64())
	metaLen := c.U32()
	if c.Err() == nil && metaLen > maxManMeta {
		return m, fmt.Errorf("segment: manifest meta of %d bytes exceeds limit", metaLen)
	}
	m.Meta = append([]byte(nil), c.Take(int(metaLen))...)
	nsegs := c.U32()
	if c.Err() != nil {
		return m, c.Err()
	}
	if m.Watermark < 0 {
		return m, fmt.Errorf("segment: negative manifest watermark")
	}
	if nsegs > maxManSegs || int(nsegs) > c.Rest()/minManEntry {
		return m, fmt.Errorf("segment: manifest lists %d segments in %d bytes", nsegs, c.Rest())
	}
	seen := make(map[string]bool, nsegs)
	m.Segs = make([]manEntry, nsegs)
	for i := range m.Segs {
		e := manEntry{
			Name:  c.Str(),
			Kind:  Kind(c.U8()),
			Count: int(c.U32()),
			MinID: int64(c.U64()),
			MaxID: int64(c.U64()),
			Bytes: int64(c.U64()),
		}
		if c.Err() != nil {
			return m, c.Err()
		}
		if e.Name == "" || strings.ContainsAny(e.Name, "/\\") || seen[e.Name] {
			return m, fmt.Errorf("segment: manifest entry %d has bad name %q", i, e.Name)
		}
		seen[e.Name] = true
		if e.Kind != KindSparse && e.Kind != KindDense {
			return m, fmt.Errorf("segment: manifest entry %q has unknown kind %d", e.Name, e.Kind)
		}
		if e.Count < 1 || e.Count >= maxSegCount || e.MinID > e.MaxID || e.Bytes < 1 {
			return m, fmt.Errorf("segment: manifest entry %q is inconsistent", e.Name)
		}
		m.Segs[i] = e
	}
	ntombs := c.U32()
	if c.Err() != nil {
		return m, c.Err()
	}
	if ntombs > maxManTomb || int(ntombs) > c.Rest()/8 {
		return m, fmt.Errorf("segment: manifest lists %d tombstones in %d bytes", ntombs, c.Rest())
	}
	m.Tombs = make([]int64, ntombs)
	for i := range m.Tombs {
		m.Tombs[i] = int64(c.U64())
		if c.Err() != nil {
			return m, c.Err()
		}
		if i > 0 && m.Tombs[i] <= m.Tombs[i-1] {
			return m, fmt.Errorf("segment: tombstones not strictly ascending at %d", i)
		}
	}
	if c.Rest() != 0 {
		return m, fmt.Errorf("segment: %d trailing bytes after manifest", c.Rest())
	}
	return m, nil
}
