package knn

import (
	"fmt"
	"io"

	"erfilter/internal/frame"
	"erfilter/internal/vector"
)

// The HNSW graph section (ERHNSW) is one sealed internal/frame stream.
// It is self-delimiting — every array is counted — so it can be embedded
// inline in a larger stream: Load reads exactly the bytes Save wrote.
const hnswMagic = "ERHNSW\x01\n"

// Codec sanity bounds: a corrupt length field must not trigger an
// enormous allocation before the CRC check gets a chance to reject it.
const (
	maxHNSWSlots = 1 << 27
	maxHNSWDim   = 1 << 16
	maxHNSWM     = 1 << 10
	maxHNSWEf    = 1 << 20
)

// Save serializes the snapshot — graph structure, vectors and tombstones
// — to w. The output is a pure function of the snapshot's state, so two
// indexes built by the same op sequence save byte-identically.
func (s *HNSWSnapshot) Save(w io.Writer) error {
	hw := frame.NewWriter(w)
	hw.Magic(hnswMagic)
	hw.U8(uint8(s.metric))
	hw.U32(uint32(s.p.M))
	hw.U32(uint32(s.p.EfConstruction))
	hw.U32(uint32(s.p.EfSearch))
	hw.U64(s.p.Seed)
	dim := 0
	if len(s.vecs) > 0 {
		dim = len(s.vecs[0])
	}
	hw.U32(uint32(dim))
	hw.U32(uint32(s.Slots()))
	hw.U32(uint32(s.entry + 1))
	hw.U32(uint32(s.maxL + 1))
	for slot := range int32(s.Slots()) {
		hw.U64(uint64(s.ID(slot)))
		hw.Bool(s.Live(slot))
		for _, f := range s.vecs[slot] {
			hw.F32(f)
		}
		hw.U8(uint8(len(s.links[slot])))
		for _, layer := range s.links[slot] {
			hw.U32(uint32(len(layer)))
			for _, n := range layer {
				hw.U32(uint32(n))
			}
		}
	}
	return hw.Trailer()
}

// Save serializes the index's current state (see HNSWSnapshot.Save).
func (h *IncHNSW) Save(w io.Writer) error { return h.Freeze().Save(w) }

// LoadHNSW reads an index previously written by Save, restoring slots,
// tombstones and adjacency verbatim: each slot goes through the table's
// Add, then Remove when it is a tombstone, so a slot whose id is live in
// an earlier slot is refused, tombstone or not (no writer makes one). Every structural invariant the
// search paths rely on is validated — and the trailing checksum verified
// — before anything is returned: a truncated or corrupted stream yields
// (nil, error), never a half-built graph.
func LoadHNSW(r io.Reader) (*IncHNSW, error) {
	hr := frame.NewReader(r)
	hr.Magic(hnswMagic)
	m8 := hr.U8()
	mm, efc, efs := hr.U32(), hr.U32(), hr.U32()
	p := HNSWParams{Seed: hr.U64()}
	dim, nslots := int(hr.U32()), int(hr.U32())
	entry := int32(hr.U32()) - 1
	maxL := int(hr.U32()) - 1
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("knn: reading hnsw snapshot header: %w", err)
	}
	if m8 > uint8(L2Squared) {
		return nil, fmt.Errorf("knn: hnsw snapshot has unknown metric %d", m8)
	}
	if mm == 0 || mm > maxHNSWM {
		return nil, fmt.Errorf("knn: hnsw snapshot M %d out of range", mm)
	}
	if efc == 0 || efc > maxHNSWEf {
		return nil, fmt.Errorf("knn: hnsw snapshot efConstruction %d out of range", efc)
	}
	if efs == 0 || efs > maxHNSWEf {
		return nil, fmt.Errorf("knn: hnsw snapshot efSearch %d out of range", efs)
	}
	p.M, p.EfConstruction, p.EfSearch = int(mm), int(efc), int(efs)
	if dim > maxHNSWDim {
		return nil, fmt.Errorf("knn: hnsw snapshot dim %d out of range", dim)
	}
	if nslots > maxHNSWSlots {
		return nil, fmt.Errorf("knn: hnsw snapshot slot count %d out of range", nslots)
	}
	if nslots == 0 {
		if dim != 0 || entry != -1 || maxL != -1 {
			return nil, fmt.Errorf("knn: empty hnsw snapshot with nonempty header")
		}
	} else {
		if dim == 0 {
			return nil, fmt.Errorf("knn: hnsw snapshot with %d slots but dim 0", nslots)
		}
		if entry < 0 || int(entry) >= nslots {
			return nil, fmt.Errorf("knn: hnsw snapshot entry %d out of range", entry)
		}
		if maxL < 0 || maxL > maxHNSWLevel {
			return nil, fmt.Errorf("knn: hnsw snapshot max level %d out of range", maxL)
		}
	}
	// Grow by appending rather than trusting the claimed count: a corrupt
	// nslots must not allocate gigabytes before the stream runs dry.
	initCap := min(nslots, 4096)
	h := NewIncHNSW(Metric(m8), p)
	h.vecs = make([]vector.Vec, 0, initCap)
	h.links = make([][][]int32, 0, initCap)
	h.memo = make([][][]selCand, 0, initCap)
	h.ownGen = make([]uint64, 0, initCap)
	h.entry = entry
	h.maxL = maxL
	for slot := 0; slot < nslots; slot++ {
		id := int64(hr.U64())
		live := hr.Bool()
		v := make(vector.Vec, dim)
		for i := range v {
			v[i] = hr.F32()
		}
		nlayers := hr.U8()
		// One check covers the slot's fixed part: past a failure the reader
		// hands out zeros, and none of them has been trusted yet.
		if err := hr.Err(); err != nil {
			return nil, fmt.Errorf("knn: reading hnsw snapshot slot %d: %w", slot, err)
		}
		if _, err := h.Table.Add(id); err != nil {
			return nil, fmt.Errorf("knn: hnsw snapshot slot %d: %w", slot, err)
		}
		if !live {
			h.Remove(id)
		}
		if nlayers == 0 || int(nlayers) > maxL+1 {
			return nil, fmt.Errorf("knn: hnsw snapshot slot %d has %d layers (max level %d)", slot, nlayers, maxL)
		}
		layers := make([][]int32, nlayers)
		for l := range layers {
			cnt := hr.U32()
			bound := p.M
			if l == 0 {
				bound = 2 * p.M
			}
			if int(cnt) > bound {
				return nil, fmt.Errorf("knn: hnsw snapshot slot %d layer %d has %d links (bound %d)", slot, l, cnt, bound)
			}
			layer := make([]int32, cnt)
			for i := range layer {
				n := hr.U32()
				if int(n) >= nslots {
					return nil, fmt.Errorf("knn: hnsw snapshot slot %d links to missing slot %d", slot, n)
				}
				layer[i] = int32(n)
			}
			layers[l] = layer
		}
		h.vecs = append(h.vecs, v)
		h.links = append(h.links, layers)
		h.memo = append(h.memo, make([][]selCand, nlayers)) // nothing remembered: see IncHNSW.link
		h.ownGen = append(h.ownGen, 0)
	}
	if hr.CheckTrailer(); hr.Err() != nil {
		return nil, fmt.Errorf("knn: verifying hnsw snapshot: %w", hr.Err())
	}
	// Structural invariants the search paths index by without checking:
	// the entry point carries the top layer, no node exceeds it, and a
	// layer's links only lead to nodes that exist on that layer.
	if nslots > 0 {
		if len(h.links[entry]) != maxL+1 {
			return nil, fmt.Errorf("knn: hnsw snapshot entry %d has %d layers, want %d", entry, len(h.links[entry]), maxL+1)
		}
		for slot := range h.links {
			if len(h.links[slot]) > maxL+1 {
				return nil, fmt.Errorf("knn: hnsw snapshot slot %d above max level", slot)
			}
			for l, layer := range h.links[slot] {
				for _, n := range layer {
					if len(h.links[n]) <= l {
						return nil, fmt.Errorf("knn: hnsw snapshot slot %d layer %d links to slot %d absent from that layer", slot, l, n)
					}
				}
			}
		}
	}
	return h, nil
}
