package match

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"erfilter/internal/entity"
	"erfilter/internal/matching"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

func attrsText(s string) []entity.Attribute {
	return []entity.Attribute{{Name: "text", Value: s}}
}

var corpus = []string{
	"canon powershot a540 digital camera",
	"nikon coolpix p100 bridge camera",
	"sony cybershot dsc w55 compact",
	"apple ipod nano 4gb silver",
	"samsung galaxy buds wireless earbuds",
}

// mustOpen opens an n-shard resolver under cfg or fails the test.
func mustOpen(tb testing.TB, cfg online.Config, n int) *online.Resolver {
	tb.Helper()
	res, err := online.Open(cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func epsCfg() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{Method: online.EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.3, Clean: true}
}

func knnCfg() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3, Clean: true}
}

// applyWorkload drives identical inserts and deletes against the single
// and sharded resolvers (both allocate ids in arrival order) and
// returns the live ids.
func applyWorkload(rng *rand.Rand, single *online.Resolver, sharded *online.Resolver, inserts, deletes int) []int64 {
	var live []int64
	i := 0
	for i < inserts {
		n := 1
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(8)
			if i+n > inserts {
				n = inserts - i
			}
		}
		batch := make([][]entity.Attribute, n)
		for j := range batch {
			batch[j] = attrsText(fmt.Sprintf("%s variant %d", corpus[rng.Intn(len(corpus))], (i+j)%97))
		}
		a := single.InsertBatch(batch)
		b := sharded.InsertBatch(batch)
		for j := range a {
			if a[j] != b[j] {
				panic(fmt.Sprintf("id divergence: %d vs %d", a[j], b[j]))
			}
		}
		live = append(live, a...)
		i += n
	}
	for d := 0; d < deletes && len(live) > 0; d++ {
		j := rng.Intn(len(live))
		id := live[j]
		live = append(live[:j], live[j+1:]...)
		single.Delete(id)
		sharded.Delete(id)
	}
	return live
}

// oracleDecisions reruns the decided batch the way the offline pipeline
// would: candidates from the snapshot, pairs ordered by filter score,
// scored with internal/matching's similarity, thresholded, budget-cut,
// then greedily assigned by an independent reimplementation. The
// decider's greedy path must be byte-identical to this.
func oracleDecisions(snap Snapshot, rcfg online.Config, batch [][]entity.Attribute, req Request, mcfg Config) []Decision {
	cands, _ := snap.QueryBatch(batch, req.Opt)
	type op struct {
		q      int
		id     int64
		filter float64
	}
	var pairs []op
	for q, cs := range cands {
		for _, c := range cs {
			pairs = append(pairs, op{q, c.ID, c.Score})
		}
	}
	// Selection sort for full independence from the decider's sort.
	for i := range pairs {
		best := i
		for j := i + 1; j < len(pairs); j++ {
			a, b := pairs[j], pairs[best]
			if a.filter > b.filter ||
				(a.filter == b.filter && (a.q < b.q || (a.q == b.q && a.id < b.id))) {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
	}
	m := matching.Matcher{Similarity: matching.SimJaroWinkler}
	var edges []Edge
	spent := 0
	for _, p := range pairs {
		if req.Budget > 0 && spent >= req.Budget {
			break
		}
		attrs, ok := snap.Attrs(p.id)
		if !ok {
			continue
		}
		spent++
		sim := m.Sim(rcfg.TextOf(batch[p.q]), rcfg.TextOf(attrs))
		if sim >= mcfg.Threshold {
			edges = append(edges, Edge{Q: p.q, ID: p.id, Score: sim})
		}
	}
	// Independent greedy: repeatedly extract the best remaining edge.
	var out []Decision
	usedQ := map[int]bool{}
	usedID := map[int64]bool{}
	for len(edges) > 0 {
		best := 0
		for j := 1; j < len(edges); j++ {
			a, b := edges[j], edges[best]
			if a.Score > b.Score ||
				(a.Score == b.Score && (a.Q < b.Q || (a.Q == b.Q && a.ID < b.ID))) {
				best = j
			}
		}
		e := edges[best]
		edges = append(edges[:best], edges[best+1:]...)
		if usedQ[e.Q] || usedID[e.ID] {
			continue
		}
		usedQ[e.Q], usedID[e.ID] = true, true
		out = append(out, Decision{Query: e.Q, ID: e.ID, Score: e.Score})
	}
	if req.Top > 0 && len(out) > req.Top {
		out = out[:req.Top]
	}
	return out
}

// TestMatchEquivalenceQuick is the match-stage property gate: for
// random workloads (batch inserts, deletes past the compaction
// threshold), shard counts 1..8, and a save/load round-trip into a
// different shard count, the online decided matches must be
// byte-identical across the single resolver, the sharded resolver and
// the reloaded resolver — and the greedy path byte-identical to the
// batch internal/matching oracle run over the same snapshot. The
// bipartite path must additionally be a valid one-to-one matching of
// optimal total weight (optima can tie, so weight, not bytes, is the
// invariant against the brute-force oracle).
func TestMatchEquivalenceQuick(t *testing.T) {
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for name, cfg := range map[string]online.Config{"epsjoin": epsCfg(), "knnj": knnCfg()} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				shards := 1 + rng.Intn(8)
				single := mustOpen(t, cfg, 1)
				sharded := mustOpen(t, cfg, shards)
				inserts := 160 + rng.Intn(120)
				deletes := 70 + rng.Intn(70)
				applyWorkload(rng, single, sharded, inserts, deletes)

				var buf bytes.Buffer
				if err := sharded.Save(&buf); err != nil {
					t.Fatalf("save: %v", err)
				}
				reShards := 1 + rng.Intn(8)
				reloaded, err := online.Load(bytes.NewReader(buf.Bytes()), online.Config{}, reShards)
				if err != nil {
					t.Fatalf("load into %d shards: %v", reShards, err)
				}

				mcfg := Config{Scorer: ScoreJaroWinkler, Threshold: 0.80 + 0.05*rng.Float64()}
				dec := NewDecider(mcfg, single.Config())

				batch := make([][]entity.Attribute, 6+rng.Intn(8))
				for i := range batch {
					batch[i] = attrsText(fmt.Sprintf("%s variant %d", corpus[rng.Intn(len(corpus))], rng.Intn(97)))
				}
				reqs := []Request{
					{},
					{Opt: online.QueryOptions{K: 4}},
					{Budget: 1 + rng.Intn(30)},
					{Top: 1 + rng.Intn(4)},
				}
				label := fmt.Sprintf("seed=%d shards=%d reShards=%d t=%.3f", seed, shards, reShards, mcfg.Threshold)
				// view strips the epoch: shard epochs sum and a reload
				// restarts them, so epochs legitimately differ across
				// topologies; everything decided must not.
				view := func(r Result) []byte {
					j, _ := json.Marshal(struct {
						Entities    int
						Decisions   []Decision
						Comparisons int
						Pairs       int
						Exhausted   bool
					}{r.Entities, r.Decisions, r.Comparisons, r.Pairs, r.Exhausted})
					return j
				}
				for ri, req := range reqs {
					for _, assign := range []Assign{AssignGreedy, AssignBipartite} {
						a := dec.DecideBatch(single.Snapshot(), batch, req, assign)
						b := dec.DecideBatch(sharded.Snapshot(), batch, req, assign)
						c := dec.DecideBatch(reloaded.Snapshot(), batch, req, assign)
						ja := view(a)
						jb := view(b)
						jc := view(c)
						if !bytes.Equal(ja, jb) {
							t.Fatalf("%s req=%d %s: sharded diverged:\n single: %s\nsharded: %s", label, ri, assign, ja, jb)
						}
						if !bytes.Equal(ja, jc) {
							t.Fatalf("%s req=%d %s: reloaded diverged:\n single: %s\nreload: %s", label, ri, assign, ja, jc)
						}
						if assign == AssignGreedy {
							want := oracleDecisions(single.Snapshot(), cfg, batch, req, mcfg)
							jw, _ := json.Marshal(want)
							jg, _ := json.Marshal(a.Decisions)
							if !bytes.Equal(jg, jw) {
								t.Fatalf("%s req=%d: decider diverged from matching oracle:\n got: %s\nwant: %s", label, ri, jg, jw)
							}
						} else if req.Top == 0 {
							// Optimality check against the unassigned edge
							// set — brute force, so only when it is tractable.
							edges := rebuildEdges(single.Snapshot(), cfg, batch, req, mcfg)
							if len(edges) <= 18 {
								want := bruteForceMax(edges)
								var got float64
								for _, d := range a.Decisions {
									got += d.Score
								}
								if got < want-1e-9 || got > want+1e-9 {
									t.Fatalf("%s req=%d: bipartite weight %v, oracle %v", label, ri, got, want)
								}
							}
						}
					}
				}
				return !t.Failed()
			}
			if err := quick.Check(check, &quick.Config{MaxCount: trials}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rebuildEdges recomputes the thresholded, budget-cut edge set the
// decider assigned — the input to the brute-force optimality oracle.
func rebuildEdges(snap Snapshot, rcfg online.Config, batch [][]entity.Attribute, req Request, mcfg Config) []Edge {
	cands, _ := snap.QueryBatch(batch, req.Opt)
	var pairs []Edge
	for q, cs := range cands {
		for _, c := range cs {
			pairs = append(pairs, Edge{Q: q, ID: c.ID, Score: c.Score})
		}
	}
	sortEdges(pairs)
	var edges []Edge
	spent := 0
	for _, p := range pairs {
		if req.Budget > 0 && spent >= req.Budget {
			break
		}
		attrs, ok := snap.Attrs(p.ID)
		if !ok {
			continue
		}
		spent++
		sim := mcfg.Scorer.Sim(rcfg.TextOf(batch[p.Q]), rcfg.TextOf(attrs))
		if sim >= mcfg.Threshold {
			edges = append(edges, Edge{Q: p.Q, ID: p.ID, Score: sim})
		}
	}
	return edges
}

// TestMatchProgressiveBudget pins the progressive emitter: a budgeted
// run marks exhaustion, spends exactly the budget, and emits a prefix
// (in decreasing similarity) of the unbudgeted decisions under Top.
func TestMatchProgressiveBudget(t *testing.T) {
	cfg := epsCfg()
	r := mustOpen(t, cfg, 1)
	for i := 0; i < 40; i++ {
		r.Insert(attrsText(fmt.Sprintf("%s variant %d", corpus[i%len(corpus)], i%7)))
	}
	dec := NewDecider(Config{Scorer: ScoreJaroWinkler, Threshold: 0.8}, cfg)
	batch := [][]entity.Attribute{
		attrsText("canon powershot a540 digital camera"),
		attrsText("apple ipod nano 4gb silver"),
		attrsText("sony cybershot dsc w55 compact"),
	}
	full := dec.DecideBatch(r.Snapshot(), batch, Request{}, -1)
	if len(full.Decisions) == 0 {
		t.Fatal("no decisions on exact duplicates")
	}
	if full.Exhausted {
		t.Fatal("unbudgeted run reported exhaustion")
	}
	for i := 1; i < len(full.Decisions); i++ {
		if full.Decisions[i].Score > full.Decisions[i-1].Score {
			t.Fatalf("decisions not in decreasing likelihood: %+v", full.Decisions)
		}
	}
	budgeted := dec.DecideBatch(r.Snapshot(), batch, Request{Budget: 3}, -1)
	if !budgeted.Exhausted {
		t.Fatalf("budget 3 over %d pairs did not exhaust", budgeted.Pairs)
	}
	if budgeted.Comparisons > 3 {
		t.Fatalf("budget 3 spent %d comparisons", budgeted.Comparisons)
	}
	top := dec.DecideBatch(r.Snapshot(), batch, Request{Top: 1}, -1)
	if len(top.Decisions) != 1 {
		t.Fatalf("top 1 emitted %d decisions", len(top.Decisions))
	}
	if top.Decisions[0] != full.Decisions[0] {
		t.Fatalf("top-1 %+v is not the best full decision %+v", top.Decisions[0], full.Decisions[0])
	}
}
