package online

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"erfilter/internal/knn"
)

var updateTopology = flag.Bool("update-topology", false,
	"rewrite the <!-- topology:begin/end --> blocks of DESIGN.md and README.md from the Topology value")

// TestTopologyHolesPinned: the rows that are holes — compositions a later
// change is meant to make work — are exactly these three. Closing one is
// a deleted table row, a deleted name here and `-update-topology`.
func TestTopologyHolesPinned(t *testing.T) {
	var holes, codes []string
	for _, r := range refusals {
		codes = append(codes, r.code)
		if r.hole {
			holes = append(holes, r.code)
		}
	}
	if want := []string{"hnsw_on_disk", "repl_partitioned", "dirty_on_follower"}; !reflect.DeepEqual(holes, want) {
		t.Errorf("hole rows = %v, want %v", holes, want)
	}
	want := []string{"hnsw_needs_flat", "hnsw_on_disk", "repl_needs_wal", "repl_partitioned",
		"dirty_on_follower", "dirty_needs_match", "wal_with_load"}
	if !reflect.DeepEqual(codes, want) {
		t.Errorf("refusal rows = %v, want %v", codes, want)
	}
}

// TestOpenRefusesHNSWMAboveBound: a graph whose M LoadHNSW would refuse
// is refused at Open and OpenStore with an error, before any shard.
func TestOpenRefusesHNSWMAboveBound(t *testing.T) {
	cfg := Config{Method: FlatKNN, Dense: DenseHNSW, Dim: 8, HNSW: knn.HNSWParams{M: knn.MaxHNSWM + 1}}
	want := fmt.Sprintf("hnsw M %d above", knn.MaxHNSWM+1)
	if _, err := Open(cfg, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want %q", err, want)
	}
	if _, err := OpenStore(t.TempDir(), cfg, 1, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore = %v, want %q", err, want)
	}
	cfg.HNSW.M = knn.MaxHNSWM
	r, err := Open(cfg, 1)
	if err != nil {
		t.Fatalf("hnsw M = %d: %v", knn.MaxHNSWM, err)
	}
	r.Close()
}

// TestTopologyValidate: a refused point answers a *Refusal carrying the
// first matching row, a served one nil, and Points is exactly the served
// part of the grid with one label per point.
func TestTopologyValidate(t *testing.T) {
	var r *Refusal
	err := Topology{Method: FlatKNN, Dense: DenseHNSW, Shards: 3, Storage: StorageDisk, Durable: true, Replicated: true}.Validate()
	if !errors.As(err, &r) || r.Code != "hnsw_on_disk" || err.Error() != r.Reason {
		t.Fatalf("Validate = %v, want the hnsw_on_disk refusal (the first of two matching rows)", err)
	}
	all, served := grid(func(Topology) bool { return true }), Points()
	if len(served) == 0 || len(served) >= len(all) {
		t.Fatalf("%d served points of %d", len(served), len(all))
	}
	labels := map[string]bool{}
	for _, p := range all {
		if labels[p.String()] {
			t.Errorf("two grid points share the label %q", p)
		}
		labels[p.String()] = true
		if p.Follower && !p.Replicated {
			t.Errorf("%s: a follower that is not replicated is not a point", p)
		}
	}
	for _, p := range served {
		if err := p.Validate(); err != nil {
			t.Errorf("Points holds %s, which Validate refuses: %v", p, err)
		}
	}
}

// refusalTable renders the refusal rows: each with the smallest grid
// point that this row alone refuses.
func refusalTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| code | smallest refused point | refused because | kind |\n|---|---|---|---|\n")
	for i, r := range refusals {
		only := grid(func(p Topology) bool {
			for j, other := range refusals {
				if other.refused(p) != (i == j) {
					return false
				}
			}
			return true
		})
		if len(only) == 0 {
			t.Fatalf("no grid point is refused by %s alone", r.code)
		}
		kind := "decision"
		if r.hole {
			kind = "hole"
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s |\n", r.code, only[0], r.reason, kind)
	}
	return b.String()
}

// matrixTable renders Points grouped by partitioning, storage and
// durability: what each group serves along the remaining axes.
func matrixTable() string {
	type group struct {
		shards  int
		storage StorageKind
		durable bool
	}
	var order []group
	rows := map[group][]Topology{}
	for _, p := range Points() {
		g := group{p.Shards, p.Storage, p.Durable}
		if rows[g] == nil {
			order = append(order, g)
		}
		rows[g] = append(rows[g], p)
	}
	// set joins the distinct values of label over the group, in point order.
	set := func(ps []Topology, label func(Topology) string) string {
		var vals []string
		for _, p := range ps {
			if v := label(p); v != "" && !slices.Contains(vals, v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return "—"
		}
		return strings.Join(vals, ", ")
	}
	role := func(p Topology) string {
		switch {
		case p.Follower:
			return "follower"
		case p.Replicated:
			return "leader"
		}
		return "none"
	}
	var b strings.Builder
	b.WriteString("| shards | storage | `-wal` | role | method/index | `-dirty` under role | `-load` | points |\n|---|---|---|---|---|---|---|---|\n")
	for _, g := range order {
		ps := rows[g]
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %s | %s | %d |\n", g.shards, g.storage,
			map[bool]string{false: "no", true: "yes"}[g.durable], set(ps, role),
			set(ps, func(p Topology) string { return strings.Fields(p.String())[0] }),
			set(ps, func(p Topology) string {
				if p.Dirty {
					return role(p)
				}
				return ""
			}),
			set(ps, func(p Topology) string {
				if p.Load {
					return "served"
				}
				return ""
			}), len(ps))
	}
	return b.String()
}

// TestTopologyDocsGenerated holds the two hand-readable copies of the
// matrix — DESIGN.md §10 and README's refusal table — to what the value
// renders, byte for byte, between their topology markers;
// `go test ./internal/online -run TestTopologyDocsGenerated -update-topology`
// rewrites the blocks.
func TestTopologyDocsGenerated(t *testing.T) {
	const begin, end = "<!-- topology:begin -->\n", "<!-- topology:end -->\n"
	for path, want := range map[string]string{
		"../../README.md": refusalTable(t),
		"../../DESIGN.md": matrixTable() + "\n" + refusalTable(t),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Fatalf("%s: no %s … %s block", path, strings.TrimSpace(begin), strings.TrimSpace(end))
		}
		i += len(begin)
		if doc[i:j] == want {
			continue
		}
		if !*updateTopology {
			t.Errorf("%s: the topology block is not what online.Topology renders (run with -update-topology):\n--- in the file\n%s--- rendered\n%s", path, doc[i:j], want)
			continue
		}
		if err := os.WriteFile(path, []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
