package knn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"erfilter/internal/vector"
)

// The HNSW graph section is serialized in the same style as the online
// snapshot-v2 container: a magic header, little-endian fixed-width
// fields, and a trailing CRC-32C over everything before it. The stream
// is self-delimiting (every array is counted), so it can be embedded
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

var hnswCRC = crc32.MakeTable(crc32.Castagnoli)

type hnswWriter struct {
	w   io.Writer
	crc uint32
	err error
	buf [8]byte
}

func (w *hnswWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, hnswCRC, p)
	_, w.err = w.w.Write(p)
}

func (w *hnswWriter) u8(v uint8) {
	w.buf[0] = v
	w.bytes(w.buf[:1])
}

func (w *hnswWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.bytes(w.buf[:4])
}

func (w *hnswWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.bytes(w.buf[:8])
}

func (w *hnswWriter) trailer() {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[:4], w.crc)
	_, w.err = w.w.Write(w.buf[:4])
}

type hnswReader struct {
	r   io.Reader
	crc uint32
	buf [8]byte
}

func (r *hnswReader) bytes(p []byte) error {
	if _, err := io.ReadFull(r.r, p); err != nil {
		return fmt.Errorf("knn: truncated hnsw snapshot: %w", err)
	}
	r.crc = crc32.Update(r.crc, hnswCRC, p)
	return nil
}

func (r *hnswReader) u8() (uint8, error) {
	if err := r.bytes(r.buf[:1]); err != nil {
		return 0, err
	}
	return r.buf[0], nil
}

func (r *hnswReader) u32() (uint32, error) {
	if err := r.bytes(r.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.buf[:4]), nil
}

func (r *hnswReader) u64() (uint64, error) {
	if err := r.bytes(r.buf[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.buf[:8]), nil
}

func (r *hnswReader) checkTrailer() error {
	want := r.crc
	if _, err := io.ReadFull(r.r, r.buf[:4]); err != nil {
		return fmt.Errorf("knn: truncated hnsw snapshot: %w", err)
	}
	if got := binary.LittleEndian.Uint32(r.buf[:4]); got != want {
		return fmt.Errorf("knn: hnsw snapshot checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	return nil
}

// Save serializes the snapshot — graph structure, vectors and tombstones
// — to w. The output is a pure function of the snapshot's state, so two
// indexes built by the same op sequence save byte-identically.
func (s *HNSWSnapshot) Save(w io.Writer) error {
	hw := &hnswWriter{w: w}
	hw.bytes([]byte(hnswMagic))
	hw.u8(uint8(s.metric))
	hw.u32(uint32(s.p.M))
	hw.u32(uint32(s.p.EfConstruction))
	hw.u32(uint32(s.p.EfSearch))
	hw.u64(s.p.Seed)
	dim := 0
	if len(s.vecs) > 0 {
		dim = len(s.vecs[0])
	}
	hw.u32(uint32(dim))
	hw.u32(uint32(len(s.ids)))
	hw.u32(uint32(s.entry + 1))
	hw.u32(uint32(s.maxL + 1))
	for slot := range s.ids {
		hw.u64(uint64(s.ids[slot]))
		if s.live[slot] {
			hw.u8(1)
		} else {
			hw.u8(0)
		}
		for _, f := range s.vecs[slot] {
			hw.u32(math.Float32bits(f))
		}
		hw.u8(uint8(len(s.links[slot])))
		for _, layer := range s.links[slot] {
			hw.u32(uint32(len(layer)))
			for _, n := range layer {
				hw.u32(uint32(n))
			}
		}
	}
	hw.trailer()
	return hw.err
}

// Save serializes the index's current state (see HNSWSnapshot.Save).
func (h *IncHNSW) Save(w io.Writer) error { return h.Freeze().Save(w) }

// LoadHNSW reads an index previously written by Save, restoring slots,
// tombstones and adjacency verbatim. Every structural invariant the
// search paths rely on is validated — and the trailing checksum verified
// — before anything is returned: a truncated or corrupted stream yields
// (nil, error), never a half-built graph.
func LoadHNSW(r io.Reader) (*IncHNSW, error) {
	hr := &hnswReader{r: r}
	magic := make([]byte, len(hnswMagic))
	if err := hr.bytes(magic); err != nil {
		return nil, err
	}
	if string(magic) != hnswMagic {
		return nil, fmt.Errorf("knn: not an hnsw snapshot (bad magic)")
	}
	m8, err := hr.u8()
	if err != nil {
		return nil, err
	}
	if m8 > uint8(L2Squared) {
		return nil, fmt.Errorf("knn: hnsw snapshot has unknown metric %d", m8)
	}
	var p HNSWParams
	mm, err := hr.u32()
	if err != nil {
		return nil, err
	}
	efc, err := hr.u32()
	if err != nil {
		return nil, err
	}
	efs, err := hr.u32()
	if err != nil {
		return nil, err
	}
	if p.Seed, err = hr.u64(); err != nil {
		return nil, err
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
	dim32, err := hr.u32()
	if err != nil {
		return nil, err
	}
	nslots32, err := hr.u32()
	if err != nil {
		return nil, err
	}
	entry32, err := hr.u32()
	if err != nil {
		return nil, err
	}
	maxL32, err := hr.u32()
	if err != nil {
		return nil, err
	}
	dim, nslots := int(dim32), int(nslots32)
	if dim > maxHNSWDim {
		return nil, fmt.Errorf("knn: hnsw snapshot dim %d out of range", dim)
	}
	if nslots > maxHNSWSlots {
		return nil, fmt.Errorf("knn: hnsw snapshot slot count %d out of range", nslots)
	}
	entry := int32(entry32) - 1
	maxL := int(maxL32) - 1
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
	initCap := nslots
	if initCap > 4096 {
		initCap = 4096
	}
	h := NewIncHNSW(Metric(m8), p)
	h.ids = make([]int64, 0, initCap)
	h.vecs = make([]vector.Vec, 0, initCap)
	h.live = make([]bool, 0, initCap)
	h.links = make([][][]int32, 0, initCap)
	h.memo = make([][][]selCand, 0, initCap)
	h.ownGen = make([]uint64, 0, initCap)
	h.slotOf = make(map[int64]int32, initCap)
	h.entry = entry
	h.maxL = maxL
	for slot := 0; slot < nslots; slot++ {
		id, err := hr.u64()
		if err != nil {
			return nil, err
		}
		h.ids = append(h.ids, int64(id))
		lv, err := hr.u8()
		if err != nil {
			return nil, err
		}
		if lv > 1 {
			return nil, fmt.Errorf("knn: hnsw snapshot slot %d has bad tombstone byte %d", slot, lv)
		}
		h.live = append(h.live, lv == 1)
		if lv == 1 {
			if _, dup := h.slotOf[h.ids[slot]]; dup {
				return nil, fmt.Errorf("knn: hnsw snapshot has duplicate live id %d", h.ids[slot])
			}
			h.slotOf[h.ids[slot]] = int32(slot)
		} else {
			h.dead++
		}
		v := make(vector.Vec, dim)
		for i := range v {
			bits, err := hr.u32()
			if err != nil {
				return nil, err
			}
			v[i] = math.Float32frombits(bits)
		}
		h.vecs = append(h.vecs, v)
		nlayers, err := hr.u8()
		if err != nil {
			return nil, err
		}
		if nlayers == 0 || int(nlayers) > maxL+1 {
			return nil, fmt.Errorf("knn: hnsw snapshot slot %d has %d layers (max level %d)", slot, nlayers, maxL)
		}
		layers := make([][]int32, nlayers)
		for l := range layers {
			cnt, err := hr.u32()
			if err != nil {
				return nil, err
			}
			bound := p.M
			if l == 0 {
				bound = 2 * p.M
			}
			if int(cnt) > bound {
				return nil, fmt.Errorf("knn: hnsw snapshot slot %d layer %d has %d links (bound %d)", slot, l, cnt, bound)
			}
			layer := make([]int32, cnt)
			for i := range layer {
				n, err := hr.u32()
				if err != nil {
					return nil, err
				}
				if int(n) >= nslots {
					return nil, fmt.Errorf("knn: hnsw snapshot slot %d links to missing slot %d", slot, n)
				}
				layer[i] = int32(n)
			}
			layers[l] = layer
		}
		h.links = append(h.links, layers)
		h.memo = append(h.memo, make([][]selCand, nlayers)) // nothing remembered: see IncHNSW.link
		h.ownGen = append(h.ownGen, 0)
	}
	if err := hr.checkTrailer(); err != nil {
		return nil, err
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
