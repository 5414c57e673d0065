package online

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/query"
)

// filterWords feed the synthetic attribute generator: enough overlap
// that queries find neighbors, enough variety that predicates split the
// collection into non-trivial matching subsets.
var (
	filterNames  = []string{"canon powershot", "nikon coolpix", "sony cybershot", "canon eos", "apple ipod", "samsung galaxy", "nikon d3200", "sony alpha"}
	filterCities = []string{"berlin", "munich", "paris", "Berlin"}
	filterTags   = []string{"a1", "a2", "b1", "b2"}
)

func filterEntity(rng *rand.Rand) []entity.Attribute {
	return []entity.Attribute{
		{Name: "name", Value: filterNames[rng.Intn(len(filterNames))] + fmt.Sprintf(" model %d", rng.Intn(30))},
		{Name: "city", Value: filterCities[rng.Intn(len(filterCities))]},
		{Name: "tag", Value: filterTags[rng.Intn(len(filterTags))]},
	}
}

// filterCorpus is the predicate corpus the equivalence test sweeps:
// every clause operator, boolean shape, and modifier the DSL offers.
var filterCorpus = []string{
	`city = berlin`,
	`city != berlin`,
	`city = berlin AND tag ^= a`,
	`city = paris OR tag = b1`,
	`NOT (city = munich OR tag = a2)`,
	`name ~ "canon|nikon"`,
	`name ^= "sony" AND NOT tag = b2`,
	`tag != zzz`,     // matches everything
	`city = nowhere`, // matches nothing
	`score >= 0.05`,
	`city = berlin score >= 0.1`,
}

// TestPredicatePushdownEquivalenceQuick is the pushdown property test:
// for every method and shard count 1–8, a DSL-filtered query must equal
// the post-hoc oracle — query unfiltered at k = collection size, drop
// non-matching candidates, then apply the method's cardinality cut to
// what survives.
func TestPredicatePushdownEquivalenceQuick(t *testing.T) {
	const nEntities = 64
	rng := rand.New(rand.NewSource(7))
	collection := make([][]entity.Attribute, nEntities)
	for i := range collection {
		collection[i] = filterEntity(rng)
	}
	queries := make([][]entity.Attribute, 12)
	for i := range queries {
		queries[i] = filterEntity(rng)
	}

	for name, cfg := range testConfigs() {
		for shards := 1; shards <= 8; shards++ {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				sr := mustOpen(t, cfg, shards)
				sr.InsertBatch(collection)
				k := cfg.normalize().K
				for _, src := range filterCorpus {
					q, err := query.Parse(src)
					if err != nil {
						t.Fatalf("Parse(%q): %v", src, err)
					}
					for _, qa := range queries {
						opt := QueryOptions{Exact: true}
						if q.Where != nil {
							opt.Predicate = q.Match
						}
						opt.MinScore = q.MinScore
						got := sr.Query(qa, opt)
						want := pushdownOracle(sr, qa, q, k, cfg.Method)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("filtered query diverges from post-hoc oracle\npredicate: %s\nquery: %v\ngot:  %v\nwant: %v",
								src, qa, got, want)
						}
					}
				}
			})
		}
	}
}

// pushdownOracle computes the filtered answer the slow way: unfiltered
// query with the cardinality cut widened past the collection size,
// post-hoc filtering, then the method's own cut over the survivors.
func pushdownOracle(sr *Resolver, qa []entity.Attribute, q *query.Query, k int, method Method) []Candidate {
	raw := sr.Query(qa, QueryOptions{K: sr.Len() + 1, Exact: true})
	keep := make([]Candidate, 0, len(raw))
	for _, c := range raw {
		if q.MinScore != nil && c.Score < *q.MinScore {
			continue
		}
		if q.Where != nil {
			attrs, ok := sr.Get(c.ID)
			if !ok || !q.Match(attrs) {
				continue
			}
		}
		keep = append(keep, c)
	}
	return method.cut().Apply(keep, k)
}

// TestPredicateDropsDeletedEntity pins the post-publish drift rule: a
// snapshot predicate consults live attributes, so an entity deleted
// after the snapshot was published is filtered out of its candidates
// rather than matched against stale attributes.
func TestPredicateDropsDeletedEntity(t *testing.T) {
	cfg := testConfigs()["knnj"]
	r := mustOpen(t, cfg, 1)
	var ids []int64
	for _, s := range corpus {
		ids = append(ids, r.Insert(attrsText(s)))
	}
	snap := r.Snapshot()
	all := func([]entity.Attribute) bool { return true }
	pre := snap.Query(attrsText(corpus[0]), QueryOptions{Predicate: all})
	if len(pre) == 0 || pre[0].ID != ids[0] {
		t.Fatalf("precondition failed: %v", pre)
	}
	if !r.Delete(ids[0]) {
		t.Fatal("delete failed")
	}
	for _, c := range snap.Query(attrsText(corpus[0]), QueryOptions{Predicate: all}) {
		if c.ID == ids[0] {
			t.Fatalf("deleted entity %d still passes the predicate filter", ids[0])
		}
	}
	// The unfiltered query against the old snapshot still sees it — the
	// filter, not the snapshot, consults live state.
	found := false
	for _, c := range snap.Query(attrsText(corpus[0]), QueryOptions{}) {
		found = found || c.ID == ids[0]
	}
	if !found {
		t.Fatal("unfiltered old-snapshot query must still see the deleted entity")
	}
}

// TestMinScoreNegativeFloor pins the pointer semantics of MinScore on
// FlatKNN, whose scores are negated distances: a floor of 0 (meaningful,
// not "unset") excludes everything with positive distance, and a
// negative floor keeps close candidates.
func TestMinScoreNegativeFloor(t *testing.T) {
	cfg := testConfigs()["flat"]
	r := mustOpen(t, cfg, 1)
	for _, s := range corpus {
		r.Insert(attrsText(s))
	}
	zero := 0.0
	if got := r.Query(attrsText("something else entirely"), QueryOptions{MinScore: &zero}); len(got) != 0 {
		t.Fatalf("MinScore 0 on negated distances must drop all, got %v", got)
	}
	raw := r.Query(attrsText(corpus[0]), QueryOptions{})
	if len(raw) == 0 {
		t.Fatal("no raw candidates")
	}
	floor := raw[0].Score // keep only the best-scoring candidate's ties
	got := r.Query(attrsText(corpus[0]), QueryOptions{MinScore: &floor})
	if len(got) == 0 || got[0] != raw[0] {
		t.Fatalf("floor at best score: got %v, want first of %v", got, raw)
	}
	for _, c := range got {
		if c.Score < floor {
			t.Fatalf("candidate below floor: %v", c)
		}
	}
}

// TestFilteredQueryTrace pins the trace of an over-fetching query: a
// predicate admitting one entity in fifty cannot fill k = 3 from the
// first probe, so the kNN methods probe again at doubled cardinality —
// every round counted in Rounds and timed into Search, the query encoded
// once before the first — and still answer exactly like the post-hoc
// oracle. An unfiltered query is one round.
func TestFilteredQueryTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	collection := make([][]entity.Attribute, 200)
	for i := range collection {
		collection[i] = filterEntity(rng)
		collection[i][2].Value = "common"
		if i%50 == 7 {
			collection[i][2].Value = "rare"
		}
	}
	q, err := query.Parse(`tag = rare`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"knnj", "flat", "epsjoin"} {
		cfg := testConfigs()[name]
		cfg.K = 3
		for _, shards := range []int{1, 3} {
			sr := mustOpen(t, cfg, shards)
			sr.InsertBatch(collection)
			snap := sr.Snapshot()
			qa := filterEntity(rng)

			plain, tr := snap.QueryTraced(qa, QueryOptions{})
			if tr.Rounds != 1 || tr.Candidates != len(plain) || tr.Entities != len(collection) {
				t.Fatalf("%s/%d shards: unfiltered trace %+v for %d candidates", name, shards, tr, len(plain))
			}

			got, tr := snap.QueryTraced(qa, QueryOptions{Predicate: q.Match})
			if want := pushdownOracle(sr, qa, q, cfg.K, cfg.Method); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d shards: filtered answer %v, oracle %v", name, shards, got, want)
			}
			if name == "epsjoin" { // a threshold union has no cut to over-fetch for
				if tr.Rounds != 1 {
					t.Fatalf("%s/%d shards: %d rounds, want 1", name, shards, tr.Rounds)
				}
			} else if tr.Rounds < 2 {
				t.Fatalf("%s/%d shards: a 1-in-50 predicate at k=3 took %d round(s), want at least 2", name, shards, tr.Rounds)
			}
			if tr.Candidates != len(got) || tr.Encode <= 0 || tr.Search <= 0 {
				t.Fatalf("%s/%d shards: implausible filtered trace %+v", name, shards, tr)
			}

			// A batch sums its queries' rounds.
			_, agg := snap.QueryBatch([][]entity.Attribute{qa, qa}, QueryOptions{Predicate: q.Match})
			if agg.Rounds != 2*tr.Rounds {
				t.Fatalf("%s/%d shards: batch of two took %d rounds, one query %d", name, shards, agg.Rounds, tr.Rounds)
			}
		}
	}
}
