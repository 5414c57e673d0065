// Package online turns the batch-built, throwaway filters of the
// benchmark into a long-lived serving subsystem: incremental indexes that
// accept entities as they arrive, a Resolver answering top-candidate
// queries under one tuned configuration, reader/writer isolation through
// epoch-swapped immutable snapshots (an RCU-style atomic pointer swap —
// the query hot path takes no locks), and a pure-stdlib binary snapshot
// format so a populated resolver survives restarts.
package online

import (
	"fmt"
	"sort"
	"strings"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
	"erfilter/internal/vector"
)

// Method selects the filtering family a Resolver serves.
type Method uint8

const (
	// KNNJoin serves the sparse kNN-Join: per query, the k sets with the
	// highest distinct similarity values (Table IV semantics).
	KNNJoin Method = iota
	// EpsJoin serves the sparse ε-Join: all sets with similarity ≥ t.
	EpsJoin
	// FlatKNN serves the dense exact kNN over tuple embeddings (the
	// FAISS-Flat configuration the paper settles on).
	FlatKNN
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case KNNJoin:
		return "knnj"
	case EpsJoin:
		return "epsjoin"
	case FlatKNN:
		return "flat"
	}
	return "unknown"
}

// cut is how the method bounds a candidate list: ε-Join's similarity
// threshold keeps a union, the two cardinality thresholds count hits
// (FlatKNN) or distinct similarity values (KNNJoin).
func (m Method) cut() hit.Cut {
	switch m {
	case EpsJoin:
		return hit.Union
	case FlatKNN:
		return hit.Top
	}
	return hit.Distinct
}

// DenseIndex selects the incremental index structure behind FlatKNN's
// dense queries: the exact flat scan or the approximate HNSW graph.
type DenseIndex uint8

const (
	// DenseFlat scans every live vector per query — exact, O(n).
	DenseFlat DenseIndex = iota
	// DenseHNSW runs a beam search over an incremental HNSW graph —
	// approximate, sub-linear, recall governed by the ef knob.
	DenseHNSW
)

// String implements fmt.Stringer.
func (d DenseIndex) String() string {
	if d == DenseHNSW {
		return "hnsw"
	}
	return "flat"
}

// ParseDenseIndex converts a dense index name used by cmd flags
// (-knn-index) to a DenseIndex.
func ParseDenseIndex(s string) (DenseIndex, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "flat", "exact":
		return DenseFlat, nil
	case "hnsw", "ann":
		return DenseHNSW, nil
	}
	return 0, fmt.Errorf("online: unknown dense index %q", s)
}

// StorageKind selects where a resolver's index lives: entirely on the
// heap (the default), or split between a bounded in-memory memtable
// and an on-disk LSM segment tier.
type StorageKind uint8

const (
	// StorageMemory keeps every entity in the incremental in-memory
	// indexes.
	StorageMemory StorageKind = iota
	// StorageDisk bounds the memtable and flushes overflow to immutable
	// mmap'd segment files under Config.SegmentDir, with answers
	// byte-identical to StorageMemory.
	StorageDisk
)

// String implements fmt.Stringer.
func (s StorageKind) String() string {
	if s == StorageDisk {
		return "disk"
	}
	return "memory"
}

// ParseStorage converts a storage name used by cmd flags (-storage) to
// a StorageKind.
func ParseStorage(s string) (StorageKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "memory", "mem", "ram":
		return StorageMemory, nil
	case "disk", "lsm", "segment":
		return StorageDisk, nil
	}
	return 0, fmt.Errorf("online: unknown storage kind %q", s)
}

// ParseMethod converts a method name used by cmd flags and the snapshot
// format to a Method.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "knnj", "knn-join", "knnjoin":
		return KNNJoin, nil
	case "epsjoin", "eps-join", "eps":
		return EpsJoin, nil
	case "flat", "faiss", "flatknn":
		return FlatKNN, nil
	}
	return 0, fmt.Errorf("online: unknown method %q", s)
}

// Config is one tuned filter configuration held resident by a Resolver.
// It mirrors the parameters of the corresponding core filters (Tables IV
// and V) plus the schema setting that turns an entity's attributes into
// its indexed text.
type Config struct {
	Method Method
	// Setting selects schema-agnostic (all values) or schema-based (one
	// attribute) text assembly; BestAttribute names the attribute for the
	// latter.
	Setting       entity.SchemaSetting
	BestAttribute string
	// Clean applies stop-word removal and stemming (CL).
	Clean bool
	// Model is the representation model (RM) of the sparse methods.
	Model text.Model
	// Measure is the similarity measure (SM) of the sparse methods.
	Measure sparse.Measure
	// K is the cardinality threshold of KNNJoin and FlatKNN.
	K int
	// Threshold is the similarity threshold t of EpsJoin.
	Threshold float64
	// Metric ranks FlatKNN results (the paper's configuration uses
	// squared Euclidean distance over normalized embeddings).
	Metric knn.Metric
	// Dim is the embedding dimensionality of FlatKNN (0 = vector.Dim).
	Dim int
	// Dense selects the incremental index behind FlatKNN: the exact
	// flat scan (default) or the approximate HNSW graph.
	Dense DenseIndex
	// HNSW tunes the graph when Dense is DenseHNSW; zero fields take
	// the knn package defaults.
	HNSW knn.HNSWParams

	// Storage selects in-memory (default) or disk-backed indexing. The
	// fields below configure the disk tier and, like shard topology,
	// are deployment shape rather than filter semantics: they are not
	// serialized into snapshots, and the tier manifest's own copy wins
	// over a caller's on reopen.
	Storage StorageKind
	// SegmentDir is the tier directory for StorageDisk resolvers
	// opened volatile (durable stores derive it from the WAL dir).
	SegmentDir string
	// MemtableCap is the entity count at which the memtable flushes to
	// a new segment (0 = 32768).
	MemtableCap int
	// MergeFanin is how many segments one compaction folds together
	// (0 = 8, minimum 2).
	MergeFanin int

	// segSyncMerge runs tier compactions inline rather than in the
	// background — deterministic scheduling for the equivalence and
	// crash property tests.
	segSyncMerge bool
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.K <= 0 {
		c.K = 1
	}
	if c.Dim <= 0 {
		c.Dim = vector.Dim
	}
	if c.Method == FlatKNN && c.Dense == DenseHNSW {
		// Pin the concrete graph parameters now: they are persisted in
		// snapshots and must not drift if the knn defaults ever change.
		c.HNSW = c.HNSW.Normalized()
	}
	if c.Storage == StorageDisk {
		if c.MemtableCap <= 0 {
			c.MemtableCap = 32768
		}
		if c.MergeFanin < 2 {
			c.MergeFanin = 8
		}
	}
	return c
}

// validate refuses a normalized c at a point Topology refuses, or with
// graph params knn would not build.
func (c Config) validate(shards int, durable bool) error {
	if err := c.topology(shards, durable).Validate(); err != nil {
		return err
	}
	if c.Method == FlatKNN && c.Dense == DenseHNSW {
		return c.HNSW.Validate()
	}
	return nil
}

// methodLabel is the metrics "method" label: dense configurations are
// split by index structure so flat and hnsw latency distributions never
// mix in one series.
func (c Config) methodLabel() string {
	if c.Method == FlatKNN && c.Dense == DenseHNSW {
		return "hnsw"
	}
	return c.Method.String()
}

// Describe renders the configuration deterministically for logs and the
// /stats endpoint.
func (c Config) Describe() string {
	parts := []string{"method=" + c.Method.String(), "setting=" + c.Setting.String()}
	if c.Setting == entity.SchemaBased {
		parts = append(parts, "attribute="+c.BestAttribute)
	}
	parts = append(parts, fmt.Sprintf("clean=%v", c.Clean))
	switch c.Method {
	case KNNJoin:
		parts = append(parts, "model="+c.Model.String(), "measure="+c.Measure.String(), fmt.Sprintf("k=%d", c.K))
	case EpsJoin:
		parts = append(parts, "model="+c.Model.String(), "measure="+c.Measure.String(), fmt.Sprintf("t=%.2f", c.Threshold))
	case FlatKNN:
		parts = append(parts, fmt.Sprintf("metric=%s", c.Metric), fmt.Sprintf("k=%d", c.K), fmt.Sprintf("dim=%d", c.Dim), "index="+c.Dense.String())
		if c.Dense == DenseHNSW {
			p := c.HNSW.Normalized()
			parts = append(parts, fmt.Sprintf("m=%d", p.M), fmt.Sprintf("efc=%d", p.EfConstruction), fmt.Sprintf("ef=%d", p.EfSearch))
		}
	}
	return strings.Join(parts, " ")
}

// FromTuning converts a Problem-1 tuning result into a serving Config, so
// a grid-searched optimum can be promoted directly into the online
// resolver. Only the filter families the online subsystem serves are
// supported (kNN-Join, ε-Join, FAISS-Flat).
func FromTuning(r *tuning.Result, setting entity.SchemaSetting, bestAttribute string) (Config, error) {
	if r == nil || r.Filter == nil {
		return Config{}, fmt.Errorf("online: tuning result has no filter")
	}
	cfg := Config{Setting: setting, BestAttribute: bestAttribute}
	switch f := r.Filter.(type) {
	case *core.KNNJoinFilter:
		cfg.Method = KNNJoin
		cfg.Clean, cfg.Model, cfg.Measure, cfg.K = f.Clean, f.Model, f.Measure, f.K
	case *core.EpsJoinFilter:
		cfg.Method = EpsJoin
		cfg.Clean, cfg.Model, cfg.Measure, cfg.Threshold = f.Clean, f.Model, f.Measure, f.Threshold
	case *core.FlatKNNFilter:
		cfg.Method = FlatKNN
		cfg.Clean, cfg.K, cfg.Metric = f.Clean, f.K, knn.L2Squared
	default:
		return Config{}, fmt.Errorf("online: filter %s is not servable online", r.Filter.Name())
	}
	return cfg.normalize(), nil
}

// TextOf assembles the indexed/queried text of an entity under the
// config's schema setting, mirroring entity.NewView, and applies the
// optional cleaning. Attributes are consumed in slice order, so CSV rows
// and JSON payloads must present them deterministically. Exported so
// the match stage scores exactly the text the filter indexed.
func (c Config) TextOf(attrs []entity.Attribute) string {
	var sb strings.Builder
	for _, a := range attrs {
		if a.Value == "" {
			continue
		}
		if c.Setting == entity.SchemaBased && a.Name != c.BestAttribute {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.Value)
	}
	s := sb.String()
	if c.Clean {
		s = text.Clean(s)
	}
	return s
}

// AttrsFromMap converts a JSON-style attribute map into a deterministic
// attribute list (sorted by name), the form the HTTP daemon feeds to
// Insert and Query.
func AttrsFromMap(m map[string]string) []entity.Attribute {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	attrs := make([]entity.Attribute, 0, len(names))
	for _, name := range names {
		attrs = append(attrs, entity.Attribute{Name: name, Value: m[name]})
	}
	return attrs
}
