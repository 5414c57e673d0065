package online

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// The on-disk snapshot format is pure stdlib and deliberately minimal: a
// magic header, the tuned configuration, every resident entity's id and
// attributes in ascending-id order, an optional dense-graph section, and
// a CRC32-C trailer over the whole stream. Token sets, vocabularies and
// embeddings are *not* stored — they are deterministic functions of the
// entity texts and the configuration, so Load rebuilds them by replaying
// the entities in id order. Replay order equals the original insertion
// order (ids are monotonic and never reused), which is what makes a
// loaded resolver answer queries byte-identically to the one saved.
//
// The HNSW graph is the one structure replay cannot reproduce (replaying
// into a half-built graph routes differently than the original inserts
// did), so v3 embeds the graph section — the knn package's own
// checksummed stream — inline when a one-shard resolver or a store
// shard saves; its bytes also flow through the outer CRC. A partitioned
// topology-independent save omits the section and Load rebuilds by
// replay instead. The trailer makes corruption detection unconditional:
// any truncation or bit flip anywhere in the stream fails Load instead
// of silently loading a damaged resolver.
const (
	snapMagic   = "ERSNAP\x03\n"
	maxSnapStr  = 1 << 24 // sanity bound for length-prefixed strings
	maxSnapAttr = 1 << 20 // sanity bound for attributes per entity
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

type binWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func (b *binWriter) u8(v uint8) { b.bytes([]byte{v}) }

func (b *binWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.bytes(buf[:])
}

func (b *binWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.bytes(buf[:])
}

func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) str(s string) {
	b.u32(uint32(len(s)))
	b.bytes([]byte(s))
}

func (b *binWriter) bytes(p []byte) {
	if b.err == nil {
		b.crc = crc32.Update(b.crc, snapCRC, p)
		_, b.err = b.w.Write(p)
	}
}

// trailer writes the running checksum itself (not folded into the CRC).
func (b *binWriter) trailer() {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], b.crc)
	if b.err == nil {
		_, b.err = b.w.Write(buf[:])
	}
}

type binReader struct {
	r   *bufio.Reader
	crc uint32
	err error
}

func (b *binReader) u8() uint8 {
	var buf [1]byte
	b.bytes(buf[:])
	return buf[0]
}

func (b *binReader) u32() uint32 {
	var buf [4]byte
	b.bytes(buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

func (b *binReader) u64() uint64 {
	var buf [8]byte
	b.bytes(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }

func (b *binReader) str() string {
	n := b.u32()
	if b.err != nil {
		return ""
	}
	if n > maxSnapStr {
		b.err = fmt.Errorf("online: snapshot string length %d exceeds bound", n)
		return ""
	}
	buf := make([]byte, n)
	b.bytes(buf)
	return string(buf)
}

func (b *binReader) bytes(p []byte) {
	if b.err != nil {
		return
	}
	if _, b.err = io.ReadFull(b.r, p); b.err == nil {
		b.crc = crc32.Update(b.crc, snapCRC, p)
	}
}

// checkTrailer consumes the 4-byte checksum (outside the running CRC)
// and compares it against everything read so far.
func (b *binReader) checkTrailer() {
	if b.err != nil {
		return
	}
	var buf [4]byte
	if _, b.err = io.ReadFull(b.r, buf[:]); b.err != nil {
		b.err = fmt.Errorf("reading checksum trailer: %w", b.err)
		return
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != b.crc {
		b.err = fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", got, b.crc)
	}
}

// snapEntity is one captured (id, attributes) pair of a snapshot write.
type snapEntity struct {
	id    int64
	attrs []entity.Attribute
}

// captureLocked collects the writer-side state a snapshot needs. Callers
// hold r.mu; the attribute slices are shared, which is safe because they
// are copied on insert and never mutated while resident. With withGraph,
// an HNSW-backed shard's capture includes a frozen graph snapshot — an
// O(n) header copy, not a serialization; the expensive streaming happens
// outside the lock.
func (r *shard) captureLocked(withGraph bool) (int64, []snapEntity, *knn.HNSWSnapshot) {
	ents := make([]snapEntity, 0, len(r.attrs))
	for id, attrs := range r.attrs {
		ents = append(ents, snapEntity{id: id, attrs: attrs})
	}
	if r.tier != nil {
		// The flushed bulk joins the capture: a disk-backed shard's
		// snapshot is the same full-collection stream a memory one
		// writes, so Save/Load round-trips are storage-agnostic.
		r.tier.View().EachLive(func(id int64, attrs []entity.Attribute) {
			ents = append(ents, snapEntity{id: id, attrs: attrs})
		})
	}
	var graph *knn.HNSWSnapshot
	if g, ok := r.kn.(hnswDense); ok && withGraph {
		graph = g.IncHNSW.Freeze()
	}
	return r.nextID, ents, graph
}

// graphWriter and graphReader adapt the outer CRC'd stream as plain
// io.Writer/io.Reader, so the embedded knn graph section — which carries
// its own magic and checksum — also counts toward the outer trailer.
type graphWriter struct{ b *binWriter }

func (g graphWriter) Write(p []byte) (int, error) {
	g.b.bytes(p)
	if g.b.err != nil {
		return 0, g.b.err
	}
	return len(p), nil
}

type graphReader struct{ b *binReader }

func (g graphReader) Read(p []byte) (int, error) {
	g.b.bytes(p)
	if g.b.err != nil {
		return 0, g.b.err
	}
	return len(p), nil
}

// writeSnapshot streams one consistent captured state in the snapshot
// format; ents may be unsorted and is sorted in place. graph is nil for
// every configuration except a one-shard HNSW capture.
func writeSnapshot(w io.Writer, c Config, nextID int64, ents []snapEntity, graph *knn.HNSWSnapshot) error {
	sort.Slice(ents, func(i, j int) bool { return ents[i].id < ents[j].id })

	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.bytes([]byte(snapMagic))
	writeConfig(bw, c)

	bw.u64(uint64(nextID))
	bw.u32(uint32(len(ents)))
	for _, e := range ents {
		bw.u64(uint64(e.id))
		bw.u32(uint32(len(e.attrs)))
		for _, a := range e.attrs {
			bw.str(a.Name)
			bw.str(a.Value)
		}
	}
	if graph != nil {
		bw.u8(1)
		if bw.err == nil {
			if err := graph.Save(graphWriter{bw}); err != nil && bw.err == nil {
				bw.err = err
			}
		}
	} else {
		bw.u8(0)
	}
	bw.trailer()
	if bw.err != nil {
		return fmt.Errorf("online: saving snapshot: %w", bw.err)
	}
	return bw.w.Flush()
}

// decodeSnapshot reads and fully validates a snapshot stream — checksum
// included — before any caller builds index state from it, so a corrupt
// snapshot can never leave a partially loaded resolver behind. Entities
// come back in the stored strictly-ascending id order; the returned
// graph is non-nil only for an HNSW snapshot that embeds its section,
// and is validated against the entity set and the configuration before
// anything is returned.
func decodeSnapshot(rd io.Reader) (Config, int64, []snapEntity, *knn.IncHNSW, error) {
	fail := func(err error) (Config, int64, []snapEntity, *knn.IncHNSW, error) {
		return Config{}, 0, nil, nil, err
	}
	br := &binReader{r: bufio.NewReader(rd)}
	magic := make([]byte, len(snapMagic))
	br.bytes(magic)
	if br.err == nil && string(magic) != snapMagic {
		return fail(fmt.Errorf("online: not an erfilter snapshot (bad magic)"))
	}

	c := readConfig(br)
	if br.err != nil {
		return fail(fmt.Errorf("online: reading snapshot header: %w", br.err))
	}
	if err := validateConfig(c); err != nil {
		return fail(err)
	}

	nextID := int64(br.u64())
	count := br.u32()
	if br.err != nil {
		return fail(fmt.Errorf("online: reading snapshot counts: %w", br.err))
	}

	ents := make([]snapEntity, 0, min(int(count), 1<<16))
	var prev int64 = -1
	for i := uint32(0); i < count; i++ {
		id := int64(br.u64())
		nattrs := br.u32()
		if br.err == nil && nattrs > maxSnapAttr {
			br.err = fmt.Errorf("attribute count %d exceeds bound", nattrs)
		}
		if br.err != nil {
			return fail(fmt.Errorf("online: reading snapshot entity %d: %w", i, br.err))
		}
		attrs := make([]entity.Attribute, nattrs)
		for j := range attrs {
			attrs[j] = entity.Attribute{Name: br.str(), Value: br.str()}
		}
		if br.err != nil {
			return fail(fmt.Errorf("online: reading snapshot entity %d: %w", i, br.err))
		}
		if id <= prev || id >= nextID {
			return fail(fmt.Errorf("online: snapshot entity ids not strictly increasing below next id (%d after %d, next %d)", id, prev, nextID))
		}
		prev = id
		ents = append(ents, snapEntity{id: id, attrs: attrs})
	}

	var graph *knn.IncHNSW
	switch hasGraph := br.u8(); {
	case br.err != nil:
		return fail(fmt.Errorf("online: reading snapshot graph flag: %w", br.err))
	case hasGraph > 1:
		return fail(fmt.Errorf("online: snapshot has bad graph flag %d", hasGraph))
	case hasGraph == 1:
		if c.Dense != DenseHNSW {
			return fail(fmt.Errorf("online: snapshot embeds a graph section under a %s dense index", c.Dense))
		}
		var err error
		graph, err = knn.LoadHNSW(graphReader{br})
		if err != nil {
			return fail(fmt.Errorf("online: reading snapshot graph section: %w", err))
		}
	}
	if br.checkTrailer(); br.err != nil {
		return fail(fmt.Errorf("online: verifying snapshot: %w", br.err))
	}
	if graph != nil {
		if err := validateGraph(c, graph, ents); err != nil {
			return fail(err)
		}
	}
	return c, nextID, ents, graph, nil
}

// validateGraph cross-checks an embedded graph section against the
// snapshot it rode in on: same tuning, same metric, same dimensionality,
// and exactly the entity set as its live vectors. (Vector values are
// covered by the checksums, not recomputed.)
func validateGraph(c Config, graph *knn.IncHNSW, ents []snapEntity) error {
	if graph.Params() != c.HNSW.Normalized() {
		return fmt.Errorf("online: snapshot graph params %+v disagree with config %+v", graph.Params(), c.HNSW.Normalized())
	}
	if graph.Metric() != c.Metric {
		return fmt.Errorf("online: snapshot graph metric %s disagrees with config %s", graph.Metric(), c.Metric)
	}
	if graph.Len() > 0 && graph.Dim() != c.Dim {
		return fmt.Errorf("online: snapshot graph dim %d disagrees with config %d", graph.Dim(), c.Dim)
	}
	if graph.Len() != len(ents) {
		return fmt.Errorf("online: snapshot graph holds %d live vectors for %d entities", graph.Len(), len(ents))
	}
	for _, e := range ents {
		if !graph.Has(e.id) {
			return fmt.Errorf("online: snapshot graph is missing entity %d", e.id)
		}
	}
	return nil
}

// writeConfig encodes the serialized (filter-semantic) fields of a
// Config — the snapshot header, also pinned verbatim into the segment
// tier's manifest meta. Deployment-shape fields (Storage, SegmentDir,
// memtable/merge sizing) are deliberately not written: they describe
// where an index runs, not what it answers.
func writeConfig(bw *binWriter, c Config) {
	bw.u8(uint8(c.Method))
	bw.u8(uint8(c.Setting))
	bw.u8(boolByte(c.Clean))
	bw.u8(uint8(c.Model.N))
	bw.u8(boolByte(c.Model.Multiset))
	bw.u8(uint8(c.Measure))
	bw.u8(uint8(c.Metric))
	bw.u32(uint32(c.K))
	bw.f64(c.Threshold)
	bw.u32(uint32(c.Dim))
	bw.str(c.BestAttribute)
	bw.u8(uint8(c.Dense))
	bw.u32(uint32(c.HNSW.M))
	bw.u32(uint32(c.HNSW.EfConstruction))
	bw.u32(uint32(c.HNSW.EfSearch))
	bw.u64(c.HNSW.Seed)
}

// readConfig mirrors writeConfig; the caller checks br.err and then
// validateConfig.
func readConfig(br *binReader) Config {
	var c Config
	c.Method = Method(br.u8())
	c.Setting = entity.SchemaSetting(br.u8())
	c.Clean = br.u8() != 0
	c.Model = text.Model{N: int(br.u8()), Multiset: br.u8() != 0}
	c.Measure = sparse.Measure(br.u8())
	c.Metric = knn.Metric(br.u8())
	c.K = int(br.u32())
	c.Threshold = br.f64()
	c.Dim = int(br.u32())
	c.BestAttribute = br.str()
	c.Dense = DenseIndex(br.u8())
	c.HNSW = knn.HNSWParams{
		M:              int(br.u32()),
		EfConstruction: int(br.u32()),
		EfSearch:       int(br.u32()),
		Seed:           br.u64(),
	}
	return c
}

// validateConfig range-checks every enum-like field deserialized by Load,
// so a corrupted or hand-crafted snapshot fails loudly instead of being
// served with out-of-range values that stringify as "unknown" and score
// everything as 0.
func validateConfig(c Config) error {
	if c.Method > FlatKNN {
		return fmt.Errorf("online: snapshot has unknown method %d", c.Method)
	}
	if c.Setting != entity.SchemaAgnostic && c.Setting != entity.SchemaBased {
		return fmt.Errorf("online: snapshot has unknown schema setting %d", c.Setting)
	}
	if c.Dense > DenseHNSW {
		return fmt.Errorf("online: snapshot has unknown dense index %d", c.Dense)
	}
	if c.Method != FlatKNN && c.Dense != DenseFlat {
		return fmt.Errorf("online: snapshot pairs sparse method %s with dense index %s", c.Method, c.Dense)
	}
	switch c.Method {
	case FlatKNN:
		if c.Metric != knn.DotProduct && c.Metric != knn.L2Squared {
			return fmt.Errorf("online: snapshot has unknown metric %d", c.Metric)
		}
		if c.Dense == DenseHNSW {
			if c.HNSW.M < 1 || c.HNSW.M > 1<<10 {
				return fmt.Errorf("online: snapshot has hnsw M %d out of range", c.HNSW.M)
			}
			if c.HNSW.EfConstruction < 1 || c.HNSW.EfConstruction > 1<<20 {
				return fmt.Errorf("online: snapshot has hnsw efConstruction %d out of range", c.HNSW.EfConstruction)
			}
			if c.HNSW.EfSearch < 1 || c.HNSW.EfSearch > 1<<20 {
				return fmt.Errorf("online: snapshot has hnsw efSearch %d out of range", c.HNSW.EfSearch)
			}
		}
	default: // sparse methods carry a representation model and a measure
		if c.Model.N < 1 || c.Model.N > 5 {
			return fmt.Errorf("online: snapshot has invalid model n-gram length %d (want 1..5)", c.Model.N)
		}
		if c.Measure < sparse.Cosine || c.Measure > sparse.Jaccard {
			return fmt.Errorf("online: snapshot has unknown measure %d", c.Measure)
		}
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
