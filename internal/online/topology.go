package online

import "strconv"

// Topology is one point of the deployment matrix. Which points are
// served is stated here and nowhere else: Open, Load, OpenStore,
// Store.Bootstrap, repl.NewLeader, repl.NewFollower, serve.NewServer and
// erserve's flag check each build the point they are asked for and call
// Validate. Primitives only: the layers above fill in the upper fields.
type Topology struct {
	Method     Method
	Shards     int
	Storage    StorageKind
	Dense      DenseIndex
	Durable    bool // an online.Store: WAL + checkpoints (-wal)
	Replicated bool // fronted by a repl.Node, in either role
	Follower   bool // that node follows (implies Replicated)
	Match      bool // the match stage decides on top
	Dirty      bool // and maintains dirty-ER clusters
	Load       bool // seeded from a snapshot (-load)
}

// Refusal is the error of a refused point: the row's stable code plus
// its reason, worded in erserve's flags — where most callers meet it.
type Refusal struct{ Code, Reason string }

func (r *Refusal) Error() string { return r.Reason }

// refusals is the whole refusal table; the first matching row answers.
// A hole is a composition that does not work yet and closing it deletes
// the row; the rest are decisions. The one footnote: Load puts an HNSW
// snapshot on a disk tier under the exact index first (onStorage).
var refusals = []struct {
	code    string
	hole    bool
	refused func(Topology) bool
	reason  string
}{
	{"hnsw_needs_flat", false, func(t Topology) bool { return t.Dense == DenseHNSW && t.Method != FlatKNN },
		"-knn-index hnsw requires -method flat: the graph indexes dense embeddings"},
	{"hnsw_on_disk", true, func(t Topology) bool { return t.Dense == DenseHNSW && t.Storage == StorageDisk },
		"-storage disk serves the exact dense index only: drop -knn-index hnsw, or serve and follow an HNSW collection with -storage memory"},
	{"repl_needs_wal", false, func(t Topology) bool { return t.Replicated && !t.Durable },
		"replication requires a durable store: set -wal"},
	{"repl_partitioned", true, func(t Topology) bool { return t.Replicated && t.Shards != 1 },
		"replication requires -shards 1 (the WAL stream is a single log)"},
	{"dirty_on_follower", true, func(t Topology) bool { return t.Follower && t.Dirty },
		"-dirty needs leader-side inserts: a follower mirrors the WAL below the cluster layer; drop -dirty"},
	{"dirty_needs_match", false, func(t Topology) bool { return t.Dirty && !t.Match },
		"-dirty requires -match"},
	{"wal_with_load", false, func(t Topology) bool { return t.Load && t.Durable },
		"-wal and -load are mutually exclusive: the store recovers from its own directory (copy a snapshot there as current.snap to restore one)"},
}

// Validate returns nil at a served point and a *Refusal at any other.
func (t Topology) Validate() error {
	for _, r := range refusals {
		if r.refused(t) {
			return &Refusal{Code: r.code, Reason: r.reason}
		}
	}
	return nil
}

// String is the point's row label: the daemon's banner, the generated
// tables of DESIGN §10 and README, subtest names.
func (t Topology) String() string {
	s := t.Method.String()
	if t.Dense == DenseHNSW {
		s += "/hnsw"
	}
	s += " shards=" + strconv.Itoa(t.Shards) + " " + t.Storage.String()
	labels := [...]string{"volatile", "wal", "leader", "follower", "match", "dirty", "load"}
	for i, on := range [...]bool{!t.Durable, t.Durable, t.Replicated && !t.Follower, t.Follower, t.Match, t.Dirty, t.Load} {
		if on {
			s += " " + labels[i]
		}
	}
	return s
}

// topology is the point a resolver (durable: a store) under c occupies
// at the given shard count; the layers above it set the rest.
func (c Config) topology(shards int, durable bool) Topology {
	return Topology{Method: c.Method, Shards: shards, Storage: c.Storage, Dense: c.Dense, Durable: durable}
}

// Topology is the point this resolver occupies, as a volatile one.
func (r *Resolver) Topology() Topology { return r.cfg.topology(len(r.shards), false) }

// Points enumerates every served point of the grid.
func Points() []Topology { return grid(func(t Topology) bool { return t.Validate() == nil }) }

// grid enumerates the kept points of the matrix — a sparse and the dense
// method, either dense index, 1 and 3 shards, both storage kinds, every
// flag — as a binary counter, so the first point with a property is the
// one with nothing else set.
func grid(keep func(Topology) bool) []Topology {
	var g []Topology
	for b := 0; b < 1<<10; b++ {
		on := func(i int) bool { return b>>i&1 == 1 }
		t := Topology{Method: [...]Method{KNNJoin, FlatKNN}[b&1], Dense: [...]DenseIndex{DenseFlat, DenseHNSW}[b>>1&1],
			Shards: [...]int{1, 3}[b>>2&1], Storage: [...]StorageKind{StorageMemory, StorageDisk}[b>>3&1],
			Durable: on(4), Replicated: on(5), Follower: on(6), Match: on(7), Dirty: on(8), Load: on(9)}
		if (t.Replicated || !t.Follower) && keep(t) {
			g = append(g, t)
		}
	}
	return g
}
