package segment

import (
	"bytes"
	"fmt"
	"testing"

	"erfilter/internal/frame/frametest"
	"erfilter/internal/sparse"
)

// segmentFormat registers ERSEG with the shared corruption suite: sparse
// (the format's richest layout — postings, sizes, token table) plus a
// dense sibling for the vector section. Whatever Load accepts must be
// walkable without panics — a merge's read of it, membership, both
// query paths — and re-encode to the bytes it came from.
func segmentFormat(t testing.TB) frametest.Format {
	return frametest.Format{
		Valid: map[string][]byte{
			"sparse": segBytes(t, KindSparse, 0, sparseEntries(1, 2, 5, 9)),
			"dense":  segBytes(t, KindDense, 8, denseEntries(8, 1, 2, 5, 9)),
		},
		Seeds: [][]byte{[]byte(segMagic)},
		Load: func(data []byte) (func() ([]byte, error), error) {
			g, err := Load(data, "suite", nil)
			if err != nil {
				return nil, err
			}
			return func() ([]byte, error) {
				// A merge of the segment alone, no slot dead, writes it back.
				ents, inv := mergeInputs(g.kind, []*Reader{g}, []tombs{nil})
				if len(ents) != g.Count() || g.Count() < 1 {
					return nil, fmt.Errorf("merge input has %d entries, count = %d", len(ents), g.Count())
				}
				for _, e := range ents {
					if !g.has(e.ID) {
						return nil, fmt.Errorf("stored id %d not found", e.ID)
					}
				}
				var never tombs
				if g.kind == KindSparse {
					_ = g.rangeQuery([]string{"probe"}, 0, 0.1, never, &sparse.Scratch{})
					_ = g.knnQuery([]string{"probe"}, 0, 2, never, &sparse.Scratch{})
				} else {
					_ = g.denseSearch(make([]float32, g.dim), 2, 0, never)
				}
				var buf bytes.Buffer
				err := writeSegment(&buf, g.kind, g.dim, ents, inv)
				return buf.Bytes(), err
			}, nil
		},
	}
}

func TestSegmentLoadRejectsEveryTruncation(t *testing.T) { segmentFormat(t).Truncations(t) }
func TestSegmentLoadRejectsEveryBitFlip(t *testing.T)    { segmentFormat(t).BitFlips(t) }
func TestSegmentLoadRejectsTrailingBytes(t *testing.T)   { segmentFormat(t).TrailingBytes(t) }
func FuzzLoadSegment(f *testing.F)                       { frametest.Fuzz(f, segmentFormat(f)) }

func manifestBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	m := manifest{
		Gen:       3,
		Watermark: 77,
		Meta:      []byte("pinned"),
		Segs: []manEntry{
			{Name: "seg-0000000000000000.seg", Kind: KindSparse, Count: 4, MinID: 1, MaxID: 9, Bytes: 400},
			{Name: "seg-0000000000000002.seg", Kind: KindSparse, Count: 1, MinID: 20, MaxID: 20, Bytes: 90},
		},
		Tombs: []int64{5},
	}
	if err := writeManifest(&buf, m); err != nil {
		t.Fatalf("writeManifest: %v", err)
	}
	return buf.Bytes()
}

// manifestFormat registers ERMAN. Accepted manifests must satisfy the
// invariants Open relies on, and re-encode to the bytes they came from.
func manifestFormat(t testing.TB) frametest.Format {
	return frametest.Format{
		Valid: map[string][]byte{"manifest": manifestBytes(t)},
		Seeds: [][]byte{[]byte(manMagic)},
		Load: func(data []byte) (func() ([]byte, error), error) {
			m, err := loadManifest(data)
			if err != nil {
				return nil, err
			}
			return func() ([]byte, error) {
				if m.Watermark < 0 {
					return nil, fmt.Errorf("accepted negative watermark %d", m.Watermark)
				}
				seen := map[string]bool{}
				for _, e := range m.Segs {
					if e.Name == "" || seen[e.Name] || e.Count < 1 || e.MinID > e.MaxID || e.Bytes < 1 {
						return nil, fmt.Errorf("accepted malformed or duplicate entry %+v", e)
					}
					seen[e.Name] = true
				}
				for i := 1; i < len(m.Tombs); i++ {
					if m.Tombs[i] <= m.Tombs[i-1] {
						return nil, fmt.Errorf("accepted unsorted tombstones %v", m.Tombs)
					}
				}
				var buf bytes.Buffer
				err := writeManifest(&buf, m)
				return buf.Bytes(), err
			}, nil
		},
	}
}

func TestManifestLoadRejectsEveryTruncation(t *testing.T) { manifestFormat(t).Truncations(t) }
func TestManifestLoadRejectsEveryBitFlip(t *testing.T)    { manifestFormat(t).BitFlips(t) }
func TestManifestLoadRejectsTrailingBytes(t *testing.T)   { manifestFormat(t).TrailingBytes(t) }
func FuzzLoadManifest(f *testing.F)                       { frametest.Fuzz(f, manifestFormat(f)) }
