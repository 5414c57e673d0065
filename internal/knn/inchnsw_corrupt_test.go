package knn

import (
	"bytes"
	"testing"

	"erfilter/internal/frame/frametest"
)

// hnswSnapshotBytes builds a small but structurally rich graph (several
// layers, tombstones, a compaction in the middle) and returns its
// serialization.
func hnswSnapshotBytes(t testing.TB, n int64) []byte {
	t.Helper()
	idx := NewIncHNSW(L2Squared, HNSWParams{M: 4, Seed: 5})
	for i := int64(0); i < n; i++ {
		if err := idx.Add(i, hnswVec(uint64(i)+31, 6)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i += 7 {
		idx.Remove(i)
	}
	idx.Compact()
	for i := n; i < n+n/3; i++ {
		if err := idx.Add(i, hnswVec(uint64(i)+31, 6)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n + 2; i < n+n/3; i += 5 {
		idx.Remove(i)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hnswFormat registers ERHNSW with the shared corruption suite. The codec
// is canonical and self-delimiting: anything accepted re-saves to exactly
// the bytes it was loaded from, and trailing bytes past the stream are
// simply not consumed. A failed load must never hand back a partial graph.
func hnswFormat(t testing.TB) frametest.Format {
	var empty bytes.Buffer
	if err := NewIncHNSW(DotProduct, HNSWParams{}).Save(&empty); err != nil {
		t.Fatal(err)
	}
	graph := hnswSnapshotBytes(t, 24)
	return frametest.Format{
		Valid:      map[string][]byte{"graph": graph, "empty": empty.Bytes()},
		Seeds:      [][]byte{graph[:9], []byte(hnswMagic)},
		TrailingOK: true,
		Load: func(data []byte) (func() ([]byte, error), error) {
			idx, err := LoadHNSW(bytes.NewReader(data))
			if err != nil {
				if idx != nil {
					t.Fatalf("a non-nil index came back alongside %v", err)
				}
				return nil, err
			}
			return func() ([]byte, error) {
				var buf bytes.Buffer
				err := idx.Save(&buf)
				return buf.Bytes(), err
			}, nil
		},
	}
}

func TestHNSWLoadRejectsEveryTruncation(t *testing.T) { hnswFormat(t).Truncations(t) }
func TestHNSWLoadRejectsEveryBitFlip(t *testing.T)    { hnswFormat(t).BitFlips(t) }
func TestHNSWLoadToleratesTrailingBytes(t *testing.T) { hnswFormat(t).TrailingBytes(t) }
func FuzzLoadHNSW(f *testing.F)                       { frametest.Fuzz(f, hnswFormat(f)) }

// TestHNSWLoadReadsExactlyItsStream: LoadHNSW takes from its source the
// bytes Save wrote and not one more — what lets the section sit inside a
// larger stream.
func TestHNSWLoadReadsExactlyItsStream(t *testing.T) {
	data := hnswSnapshotBytes(t, 200)
	src := bytes.NewReader(append(data, "the enclosing stream goes on"...))
	if _, err := LoadHNSW(src); err != nil {
		t.Fatal(err)
	}
	if read := src.Size() - int64(src.Len()); read != int64(len(data)) {
		t.Fatalf("%d bytes left the source for a %d-byte stream", read, len(data))
	}
}
