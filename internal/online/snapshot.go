package online

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"erfilter/internal/entity"
	"erfilter/internal/frame"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// ERSNAP stores only what replay cannot rebuild: the configuration, the
// entities in ascending-id order — which is insertion order, so a loaded
// resolver answers byte-identically to the one saved — and, for a
// one-shard HNSW capture, the graph (replaying into a half-built graph
// routes differently than the original inserts did). Layout, framing and
// the embedding of the ERHNSW section: DESIGN.md §16.
const snapMagic = "ERSNAP\x03\n"

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

// writeSnapshot streams one consistent captured state in the snapshot
// format; ents may be unsorted and is sorted in place. graph is nil for
// every configuration except a one-shard HNSW capture.
func writeSnapshot(w io.Writer, c Config, nextID int64, ents []snapEntity, graph *knn.HNSWSnapshot) error {
	sort.Slice(ents, func(i, j int) bool { return ents[i].id < ents[j].id })

	bw := frame.NewWriter(w)
	bw.Magic(snapMagic)
	writeConfig(bw, c)

	bw.U64(uint64(nextID))
	bw.U32(uint32(len(ents)))
	for _, e := range ents {
		bw.U64(uint64(e.id))
		frame.PutAttrs(bw, e.attrs)
	}
	bw.Bool(graph != nil)
	if graph != nil {
		if err := graph.Save(bw); err != nil {
			return fmt.Errorf("online: saving snapshot graph section: %w", err)
		}
	}
	if err := bw.Trailer(); err != nil {
		return fmt.Errorf("online: saving snapshot: %w", err)
	}
	return nil
}

// decodeSnapshot reads and fully validates a snapshot stream — checksum
// included — before any caller builds index state from it, so a corrupt
// snapshot can never leave a partially loaded resolver behind. The stream
// is consumed incrementally and only as far as its trailer. Entities
// come back in the stored strictly-ascending id order; the returned
// graph is non-nil only for an HNSW snapshot that embeds its section,
// and is validated against the entity set and the configuration before
// anything is returned.
func decodeSnapshot(rd io.Reader) (Config, int64, []snapEntity, *knn.IncHNSW, error) {
	fail := func(err error) (Config, int64, []snapEntity, *knn.IncHNSW, error) {
		return Config{}, 0, nil, nil, err
	}
	br := frame.NewReader(bufio.NewReader(rd))
	br.Magic(snapMagic)
	c := readConfig(br)
	if br.Err() != nil {
		return fail(fmt.Errorf("online: reading snapshot header: %w", br.Err()))
	}
	if err := validateConfig(c); err != nil {
		return fail(err)
	}

	// A failed read hands out zeros from here on: no entities, no graph
	// section — and the trailer check at the end reports it.
	nextID, count := int64(br.U64()), br.U32()
	ents := make([]snapEntity, 0, min(int(count), 1<<16))
	var prev int64 = -1
	for i := uint32(0); i < count; i++ {
		id := int64(br.U64())
		attrs := frame.ReadAttrs[entity.Attribute](br)
		if br.Err() != nil {
			return fail(fmt.Errorf("online: reading snapshot entity %d: %w", i, br.Err()))
		}
		if id <= prev || id >= nextID {
			return fail(fmt.Errorf("online: snapshot entity ids not strictly increasing below next id (%d after %d, next %d)", id, prev, nextID))
		}
		prev = id
		ents = append(ents, snapEntity{id: id, attrs: attrs})
	}

	var graph *knn.IncHNSW
	if br.Bool() {
		if c.Dense != DenseHNSW {
			return fail(fmt.Errorf("online: snapshot embeds a graph section under a %s dense index", c.Dense))
		}
		var err error
		if graph, err = knn.LoadHNSW(br); err != nil {
			return fail(fmt.Errorf("online: reading snapshot graph section: %w", err))
		}
	}
	if br.CheckTrailer(); br.Err() != nil {
		return fail(fmt.Errorf("online: reading snapshot: %w", br.Err()))
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
	if graph.Slots() > 0 && graph.Dim() != c.Dim { // tombstones count: an insert must fit them too
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
func writeConfig(bw *frame.Writer, c Config) {
	bw.U8(uint8(c.Method))
	bw.U8(uint8(c.Setting))
	bw.Bool(c.Clean)
	bw.U8(uint8(c.Model.N))
	bw.Bool(c.Model.Multiset)
	bw.U8(uint8(c.Measure))
	bw.U8(uint8(c.Metric))
	bw.U32(uint32(c.K))
	bw.F64(c.Threshold)
	bw.U32(uint32(c.Dim))
	bw.Str(c.BestAttribute)
	bw.U8(uint8(c.Dense))
	bw.U32(uint32(c.HNSW.M))
	bw.U32(uint32(c.HNSW.EfConstruction))
	bw.U32(uint32(c.HNSW.EfSearch))
	bw.U64(c.HNSW.Seed)
}

// readConfig mirrors writeConfig; the caller checks br.Err and then
// validateConfig.
func readConfig(br *frame.Reader) Config {
	var c Config
	c.Method = Method(br.U8())
	c.Setting = entity.SchemaSetting(br.U8())
	c.Clean = br.Bool()
	c.Model = text.Model{N: int(br.U8()), Multiset: br.Bool()}
	c.Measure = sparse.Measure(br.U8())
	c.Metric = knn.Metric(br.U8())
	c.K = int(br.U32())
	c.Threshold = br.F64()
	c.Dim = int(br.U32())
	c.BestAttribute = br.Str()
	c.Dense = DenseIndex(br.U8())
	c.HNSW = knn.HNSWParams{
		M:              int(br.U32()),
		EfConstruction: int(br.U32()),
		EfSearch:       int(br.U32()),
		Seed:           br.U64(),
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
		if c.Dim > 1<<16 {
			return fmt.Errorf("online: snapshot has dimensionality %d out of range", c.Dim)
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
