package match

import (
	"sync"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
)

// Snapshot is the candidate source a Decider consumes: an immutable
// epoch view that can batch-resolve queries and surface the stored
// attributes of any candidate it returned. *online.Snapshot satisfies
// it at every shard count, which is how decisions inherit the filter's
// shard-count equivalence — everything below the candidate lists is a
// deterministic function of them.
type Snapshot interface {
	Epoch() uint64
	Len() int
	QueryBatch(batch [][]entity.Attribute, opt online.QueryOptions) ([][]online.Candidate, online.Trace)
	Attrs(id int64) ([]entity.Attribute, bool)
}

// Decision is one decided match: the batch-local query index, the
// resident entity it matched, and the scorer similarity that decided
// the pair.
type Decision struct {
	Query int     `json:"query"`
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// Request tunes one DecideBatch call.
type Request struct {
	// Opt is passed through to candidate generation.
	Opt online.QueryOptions
	// Budget caps the number of scorer comparisons; 0 is unlimited.
	// Pairs are scored in decreasing filter-score order, so a budgeted
	// run spends its comparisons on the most promising pairs first —
	// the progressive-resolution discipline of Galhotra et al.
	Budget int
	// Top keeps only the N best decisions (by scorer similarity);
	// 0 keeps all.
	Top int
}

// Result is the outcome of one decided batch. Decisions are in
// emission order: scorer similarity descending, then query index, then
// entity id — the progressive "best pairs first" order.
type Result struct {
	Epoch       uint64
	Entities    int
	Decisions   []Decision
	Comparisons int  // scorer comparisons actually spent
	Pairs       int  // candidate pairs the filter produced
	Exhausted   bool // budget ran out before every pair was scored
}

// Decider scores filtered candidates and resolves them into decided
// matches. Safe for concurrent use; all state is read-only after
// construction except the (atomic) telemetry.
type Decider struct {
	cfg  Config
	rcfg online.Config // the resolver's config: the text the filter indexed
	tel  *telemetry
}

// NewDecider builds a decider for a resolver configured by rcfg.
func NewDecider(cfg Config, rcfg online.Config) *Decider {
	return &Decider{cfg: cfg.Normalize(), rcfg: rcfg, tel: newTelemetry()}
}

// Config returns the decider's normalized configuration.
func (d *Decider) Config() Config { return d.cfg }

// DecideBatch resolves the batch against the snapshot, scores the
// candidate pairs with the configured scorer, and returns the
// one-to-one decided matches. assign overrides the configured
// assignment when >= 0 (the HTTP layer lets a request choose).
func (d *Decider) DecideBatch(snap Snapshot, batch [][]entity.Attribute, req Request, assign Assign) Result {
	begin := time.Now()
	cands, tr := snap.QueryBatch(batch, req.Opt)

	res := Result{Epoch: tr.Epoch, Entities: tr.Entities}
	if res.Epoch == 0 {
		res.Epoch = snap.Epoch()
	}
	if res.Entities == 0 {
		res.Entities = snap.Len()
	}

	// Flatten to pairs and order them by decreasing filter score (ties
	// by query index, then id): the order both the comparison budget
	// and the progressive emitter walk.
	var pairs []Edge
	for q, cs := range cands {
		for _, c := range cs {
			pairs = append(pairs, Edge{Q: q, ID: c.ID, Score: c.Score})
		}
	}
	sortEdges(pairs)
	res.Pairs = len(pairs)

	// Score under the budget. Query texts are assembled once per query,
	// candidate texts once per distinct id.
	qText := make([]string, len(batch))
	qDone := make([]bool, len(batch))
	idText := make(map[int64]string)
	var edges []Edge
	for _, p := range pairs {
		if req.Budget > 0 && res.Comparisons >= req.Budget {
			res.Exhausted = true
			break
		}
		if !qDone[p.Q] {
			qText[p.Q] = d.rcfg.TextOf(batch[p.Q])
			qDone[p.Q] = true
		}
		ct, ok := idText[p.ID]
		if !ok {
			attrs, live := snap.Attrs(p.ID)
			if !live {
				// The entity vanished between the query and the attr
				// lookup (concurrent delete); skip the pair.
				idText[p.ID] = ""
				continue
			}
			ct = d.rcfg.TextOf(attrs)
			idText[p.ID] = ct
		} else if ct == "" {
			continue
		}
		res.Comparisons++
		sim := d.cfg.Scorer.Sim(qText[p.Q], ct)
		if sim >= d.cfg.Threshold {
			edges = append(edges, Edge{Q: p.Q, ID: p.ID, Score: sim})
		}
	}

	if assign < 0 {
		assign = d.cfg.Assign
	}
	if assign == AssignBipartite {
		res.Decisions = toDecisions(Bipartite(edges))
	} else {
		res.Decisions = toDecisions(Greedy(edges))
	}
	if req.Top > 0 && len(res.Decisions) > req.Top {
		res.Decisions = res.Decisions[:req.Top]
	}

	d.probe(res.Decisions, qText, idText)
	d.observe(res, time.Since(begin))
	return res
}

// probe re-scores a deterministic 1-in-probePeriod sample of the
// decided matches with an independent scorer at the same threshold and
// counts agreement — a running precision proxy that costs one extra
// comparison per sampled decision and never touches the decisions.
func (d *Decider) probe(decisions []Decision, qText []string, idText map[int64]string) {
	if len(decisions) == 0 {
		return
	}
	t := d.tel
	t.mu.Lock()
	seq := t.probeSeq
	t.probeSeq += int64(len(decisions))
	t.mu.Unlock()
	probe := d.probeScorer()
	for i, dec := range decisions {
		if (seq+int64(i))%probePeriod != 0 {
			continue
		}
		t.probeTotal.Inc()
		if probe.Sim(qText[dec.Query], idText[dec.ID]) >= d.cfg.Threshold {
			t.probeAgree.Inc()
		}
	}
}

// toDecisions converts assigned edges (canonical order) to decisions.
func toDecisions(es []Edge) []Decision {
	out := make([]Decision, len(es))
	for i, e := range es {
		out[i] = Decision{Query: e.Q, ID: e.ID, Score: e.Score}
	}
	return out
}

// probePeriod samples every Nth decided match for the precision probe.
const probePeriod = 16

// telemetry is the decider's (nil-safe at zero value via newTelemetry)
// metric set.
type telemetry struct {
	decideNS    *metrics.Histogram
	batches     *metrics.Counter
	comparisons *metrics.Counter
	pairs       *metrics.Counter
	decisions   *metrics.Counter
	exhausted   *metrics.Counter
	probeTotal  *metrics.Counter
	probeAgree  *metrics.Counter
	mu          sync.Mutex
	probeSeq    int64
}

func newTelemetry() *telemetry {
	return &telemetry{
		decideNS:    &metrics.Histogram{},
		batches:     &metrics.Counter{},
		comparisons: &metrics.Counter{},
		pairs:       &metrics.Counter{},
		decisions:   &metrics.Counter{},
		exhausted:   &metrics.Counter{},
		probeTotal:  &metrics.Counter{},
		probeAgree:  &metrics.Counter{},
	}
}

// observe records one decided batch into the telemetry.
func (d *Decider) observe(res Result, dur time.Duration) {
	t := d.tel
	t.decideNS.ObserveDuration(dur)
	t.batches.Inc()
	t.comparisons.Add(int64(res.Comparisons))
	t.pairs.Add(int64(res.Pairs))
	t.decisions.Add(int64(len(res.Decisions)))
	if res.Exhausted {
		t.exhausted.Inc()
	}
}

// probeScorer picks the independent second opinion: Levenshtein unless
// it is the primary, then Jaro.
func (d *Decider) probeScorer() Scorer {
	if d.cfg.Scorer == ScoreLevenshtein {
		return ScoreJaro
	}
	return ScoreLevenshtein
}

// DeciderStats is the stats-endpoint view of a decider.
type DeciderStats struct {
	Scorer      string  `json:"scorer"`
	Threshold   float64 `json:"threshold"`
	Assign      string  `json:"assign"`
	Batches     int64   `json:"batches"`
	Pairs       int64   `json:"pairs"`
	Comparisons int64   `json:"comparisons"`
	Decisions   int64   `json:"decisions"`
	Exhausted   int64   `json:"budget_exhausted"`
	ProbeTotal  int64   `json:"probe_total"`
	ProbeAgree  int64   `json:"probe_agree"`
}

// Stats snapshots the decider's counters.
func (d *Decider) Stats() DeciderStats {
	return DeciderStats{
		Scorer:      d.cfg.Scorer.String(),
		Threshold:   d.cfg.Threshold,
		Assign:      d.cfg.Assign.String(),
		Batches:     d.tel.batches.Value(),
		Pairs:       d.tel.pairs.Value(),
		Comparisons: d.tel.comparisons.Value(),
		Decisions:   d.tel.decisions.Value(),
		Exhausted:   d.tel.exhausted.Value(),
		ProbeTotal:  d.tel.probeTotal.Value(),
		ProbeAgree:  d.tel.probeAgree.Value(),
	}
}

// RegisterMetrics exposes the decider's telemetry.
func (d *Decider) RegisterMetrics(reg *metrics.Registry) {
	t := d.tel
	reg.RegisterHistogram("match_decide_duration_seconds",
		"Wall time of one decided batch (candidates, scoring, assignment).",
		nil, 1e-9, t.decideNS)
	reg.RegisterCounter("match_batches_total",
		"Decided batches.", nil, t.batches)
	reg.RegisterCounter("match_candidate_pairs_total",
		"Candidate pairs produced by the filter for decision.", nil, t.pairs)
	reg.RegisterCounter("match_comparisons_total",
		"Scorer comparisons spent (budget-capped).", nil, t.comparisons)
	reg.RegisterCounter("match_decisions_total",
		"Decided matches emitted.", nil, t.decisions)
	reg.RegisterCounter("match_budget_exhausted_total",
		"Decided batches whose comparison budget ran out.", nil, t.exhausted)
	reg.RegisterCounter("match_probe_total",
		"Decided matches sampled by the precision probe.", nil, t.probeTotal)
	reg.RegisterCounter("match_probe_agree_total",
		"Sampled matches the independent probe scorer agreed with.", nil, t.probeAgree)
}
