package match

import (
	"sync"

	"erfilter/internal/entity"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
)

// InsertDecision is the dirty-mode answer for one inserted entity: its
// assigned id, the matches that decided for it, and the canonical id
// of the duplicate cluster it landed in (its own id when unmatched).
type InsertDecision struct {
	ID      int64
	Cluster int64
	Matches []Decision // Query is the batch-local index of the insert; never nil
}

// Dirty maintains dirty-ER duplicate clusters over decided matches:
// every insert is first decided against the pre-insert snapshot, then
// applied, then unioned with its matches — all under one lock, so the
// cluster state observes inserts in exactly insertion order. Decisions
// here are NOT one-to-one: a new entity unions with every resident
// entity it matches (they are all its duplicates), which is what makes
// the incremental closure equal to the batch union-find over the same
// decided pairs.
//
// With a pair-local scorer and an ε-join filter the decided-pair set is
// itself pair-local ("filter similarity >= eps AND scorer similarity >=
// t"), so Rebuild — run after a snapshot load or WAL replay, when
// insertion order is gone — reconstructs the identical clusters by
// walking resident ids in ascending order. Cardinality-cut filters
// (kNN-join, FlatKNN) still cluster usefully but the replayed closure
// can differ where the cut hid a pair; DESIGN.md §15 records the
// trade-off.
type Dirty struct {
	mu  sync.Mutex
	dec *Decider
	cl  *Clusters
}

// NewDirty wraps a decider with dirty-ER cluster maintenance.
func NewDirty(dec *Decider) *Dirty {
	return &Dirty{dec: dec, cl: NewClusters()}
}

// Decider returns the underlying decider (for stats).
func (d *Dirty) Decider() *Decider { return d.dec }

// InsertBatch inserts the batch one entity at a time: each entity is
// decided against the snapshot that precedes it (so an entity can match
// earlier members of its own batch, but never itself), inserted, and
// unioned with its matches. insert is the write path the clusterer
// drives (a store's, a replication node's or a bare resolver's
// InsertBatch); snapFn must return its current snapshot; opt tunes
// candidate generation (zero = resolver defaults).
func (d *Dirty) InsertBatch(insert func([][]entity.Attribute) ([]int64, error), snapFn func() Snapshot, batch [][]entity.Attribute, opt online.QueryOptions) ([]InsertDecision, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]InsertDecision, 0, len(batch))
	for i, attrs := range batch {
		matches := d.decideOne(snapFn(), attrs, i, opt)
		ids, err := insert([][]entity.Attribute{attrs})
		if err != nil {
			return out, err
		}
		id := ids[0]
		d.cl.Add(id)
		for _, m := range matches {
			d.cl.Union(id, m.ID)
		}
		cluster, _, _ := d.cl.ClusterOf(id)
		out = append(out, InsertDecision{ID: id, Cluster: cluster, Matches: matches})
	}
	return out, nil
}

// decideOne scores one entity against the snapshot and returns every
// resident match at or above the threshold, best first. The scored
// pairs feed the decider's telemetry like any decided batch.
func (d *Dirty) decideOne(snap Snapshot, attrs []entity.Attribute, q int, opt online.QueryOptions) []Decision {
	cands, _ := snap.QueryBatch([][]entity.Attribute{attrs}, opt)
	if len(cands) == 0 || len(cands[0]) == 0 {
		return []Decision{}
	}
	tel := d.dec.tel
	tel.pairs.Add(int64(len(cands[0])))
	qt := d.dec.rcfg.TextOf(attrs)
	var edges []Edge
	for _, c := range cands[0] {
		ca, ok := snap.Attrs(c.ID)
		if !ok {
			continue
		}
		tel.comparisons.Inc()
		if sim := d.dec.cfg.Scorer.Sim(qt, d.dec.rcfg.TextOf(ca)); sim >= d.dec.cfg.Threshold {
			edges = append(edges, Edge{Q: q, ID: c.ID, Score: sim})
		}
	}
	tel.decisions.Add(int64(len(edges)))
	sortEdges(edges)
	return toDecisions(edges)
}

// Delete drops an id from its cluster; see Clusters.Remove for the
// bridge caveat.
func (d *Dirty) Delete(id int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cl.Remove(id)
}

// ClusterOf returns the canonical cluster id and sorted members for a
// resident entity.
func (d *Dirty) ClusterOf(id int64) (int64, []int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cl.ClusterOf(id)
}

// Stats snapshots the cluster summary.
func (d *Dirty) Stats() ClusterStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cl.Stats()
}

// Rebuild reconstructs the clusters from scratch over the resident
// collection — the recovery path after a snapshot load or a WAL
// replay, where insertion order is unrecoverable. ids must be every
// resident id in ascending order (Resolver.IDs). Each id is decided
// against the full snapshot and unioned with its matches below itself:
// for pair-local decisions this reproduces the insert-time closure
// exactly, because "decide i against everything inserted before i" and
// "decide i against everything, keep partners < i" select the same
// pairs.
func (d *Dirty) Rebuild(snap Snapshot, ids []int64, opt online.QueryOptions) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cl = NewClusters()
	for _, id := range ids {
		attrs, ok := snap.Attrs(id)
		if !ok {
			continue
		}
		d.cl.Add(id)
		for _, m := range d.decideOne(snap, attrs, 0, opt) {
			if m.ID < id {
				d.cl.Union(id, m.ID)
			}
		}
	}
}

// RegisterMetrics exposes the cluster-size gauges.
func (d *Dirty) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("match_clusters",
		"Duplicate clusters (size >= 2) tracked in dirty mode.", nil,
		func() float64 { return float64(d.Stats().Clusters) })
	reg.GaugeFunc("match_clustered_entities",
		"Entities inside duplicate clusters in dirty mode.", nil,
		func() float64 { return float64(d.Stats().Clustered) })
	reg.GaugeFunc("match_cluster_max_size",
		"Largest duplicate cluster tracked in dirty mode.", nil,
		func() float64 { return float64(d.Stats().MaxSize) })
}
