package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/match"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// epsTestConfig is the ε-join configuration the dirty-ER tests use —
// the pair-local filter whose decisions survive incremental closure.
func epsTestConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.3, Clean: true,
	}
}

func newMatchServer(t *testing.T, res *online.Resolver, mo *MatchOptions) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustServer(t, res, nil, Options{
		RequestTimeout: 10 * time.Second, Match: mo,
	}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

type matchResponse struct {
	Epoch    uint64 `json:"epoch"`
	Entities int    `json:"entities"`
	Matches  []struct {
		Query int     `json:"query"`
		ID    int64   `json:"id"`
		Score float64 `json:"score"`
	} `json:"matches"`
	Pairs       int  `json:"pairs"`
	Comparisons int  `json:"comparisons"`
	Exhausted   bool `json:"exhausted"`
}

// TestMatchEndpoint drives POST /v1/match end to end: decided matches
// come back one-to-one in decreasing score, the budget caps scorer
// comparisons, the per-request assign override is honored, and a
// sharded server answers byte-identically to a single one.
func TestMatchEndpoint(t *testing.T) {
	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.85}}
	single := mustOpen(t, testConfig(), 1)
	sharded := mustOpen(t, testConfig(), 3)
	tsS := newMatchServer(t, single, mo)
	tsH := newMatchServer(t, sharded, mo)

	var ents []map[string]any
	for i := 0; i < 40; i++ {
		ents = append(ents, map[string]any{"text": fmt.Sprintf("canon powershot a%d zoom kit", i%13)})
	}
	for _, ts := range []*httptest.Server{tsS, tsH} {
		var out struct {
			IDs []int64 `json:"ids"`
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"entities": ents}, &out); code != http.StatusOK {
			t.Fatalf("insert: code=%d", code)
		}
	}

	body := map[string]any{
		"queries": []map[string]any{
			{"text": "canon powershot a3 zoom kit"},
			{"text": "canon powershot a7 zoom kit"},
			{"text": "totally unrelated quartz watch"},
		},
		"k": 5,
	}
	var ms, mh matchResponse
	if code := doJSON(t, "POST", tsS.URL+"/v1/match", body, &ms); code != http.StatusOK {
		t.Fatalf("single match: code=%d", code)
	}
	if code := doJSON(t, "POST", tsH.URL+"/v1/match", body, &mh); code != http.StatusOK {
		t.Fatalf("sharded match: code=%d", code)
	}
	if len(ms.Matches) == 0 {
		t.Fatal("no decided matches for near-duplicate queries")
	}
	for i := 1; i < len(ms.Matches); i++ {
		if ms.Matches[i].Score > ms.Matches[i-1].Score {
			t.Fatalf("matches not in decreasing score order: %+v", ms.Matches)
		}
	}
	seenQ := map[int]bool{}
	seenID := map[int64]bool{}
	for _, m := range ms.Matches {
		if seenQ[m.Query] || seenID[m.ID] {
			t.Fatalf("one-to-one violated: %+v", ms.Matches)
		}
		seenQ[m.Query], seenID[m.ID] = true, true
		if m.Score < 0.85 {
			t.Fatalf("decision below threshold: %+v", m)
		}
	}
	// The sharded decision path is byte-identical to the single one
	// (epoch excluded: a sharded epoch is the sum of shard epochs).
	js, _ := json.Marshal(struct {
		M any `json:"m"`
		P int `json:"p"`
		C int `json:"c"`
	}{ms.Matches, ms.Pairs, ms.Comparisons})
	jh, _ := json.Marshal(struct {
		M any `json:"m"`
		P int `json:"p"`
		C int `json:"c"`
	}{mh.Matches, mh.Pairs, mh.Comparisons})
	if !bytes.Equal(js, jh) {
		t.Fatalf("sharded match diverged:\n single: %s\nsharded: %s", js, jh)
	}

	// Budget: comparisons stop at the cap, exhaustion is reported.
	budget := body
	budget["budget"] = 2
	var mb matchResponse
	if code := doJSON(t, "POST", tsS.URL+"/v1/match", budget, &mb); code != http.StatusOK {
		t.Fatalf("budget match: code=%d", code)
	}
	if mb.Comparisons > 2 || !mb.Exhausted {
		t.Fatalf("budget ignored: comparisons=%d exhausted=%v", mb.Comparisons, mb.Exhausted)
	}
	delete(budget, "budget")

	// Top: the progressive emitter keeps only the best decision.
	top := body
	top["top"] = 1
	var mt matchResponse
	if code := doJSON(t, "POST", tsS.URL+"/v1/match", top, &mt); code != http.StatusOK {
		t.Fatalf("top match: code=%d", code)
	}
	if len(mt.Matches) != 1 || mt.Matches[0] != ms.Matches[0] {
		t.Fatalf("top=1 returned %+v, want the best decision %+v", mt.Matches, ms.Matches[:1])
	}
	delete(top, "top")

	// Per-request assignment override parses; garbage is a 400.
	body["assign"] = "bipartite"
	if code := doJSON(t, "POST", tsS.URL+"/v1/match", body, nil); code != http.StatusOK {
		t.Fatalf("bipartite match: code=%d", code)
	}
	body["assign"] = "munkres"
	if code, eb, _ := doEnvelope(t, "POST", tsS.URL+"/v1/match", body); code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Fatalf("bad assign: code=%d envelope=%+v", code, eb)
	}
	// The shared option set validates identically here.
	if code, _, _ := doEnvelope(t, "POST", tsS.URL+"/v1/match",
		map[string]any{"queries": []map[string]any{{"text": "x"}}, "limit": -1}); code != http.StatusBadRequest {
		t.Fatalf("negative limit on /v1/match: code=%d", code)
	}
}

// TestDirtyInsertReturnsClusters drives dirty-ER mode over HTTP: every
// insert names its own duplicate cluster and the decided matches that
// put it there, /v1/clusters/{id} reads the cluster back, deletes
// shrink it, and /v1/stats carries the match and cluster sections.
func TestDirtyInsertReturnsClusters(t *testing.T) {
	res := mustOpen(t, epsTestConfig(), 1)
	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.9}, Dirty: true}
	ts := newMatchServer(t, res, mo)

	type insertOut struct {
		IDs     []int64 `json:"ids"`
		Results []struct {
			ID      int64 `json:"id"`
			Cluster int64 `json:"cluster"`
			Matches []struct {
				ID    int64   `json:"id"`
				Score float64 `json:"score"`
			} `json:"matches"`
		} `json:"results"`
	}
	insert := func(text string) insertOut {
		t.Helper()
		var out insertOut
		if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": text}, &out); code != http.StatusOK {
			t.Fatalf("insert %q: code=%d", text, code)
		}
		if len(out.Results) != 1 || len(out.IDs) != 1 || out.Results[0].ID != out.IDs[0] {
			t.Fatalf("insert %q: malformed dirty response %+v", text, out)
		}
		return out
	}

	a := insert("canon powershot a540 digital camera")
	novel := insert("seiko quartz wrist watch")
	if novel.Results[0].Cluster != novel.IDs[0] || len(novel.Results[0].Matches) != 0 {
		t.Fatalf("novel entity not a singleton cluster: %+v", novel.Results[0])
	}
	dup := insert("canon powershot a540 digital camera")
	if dup.Results[0].Cluster != a.IDs[0] {
		t.Fatalf("duplicate landed in cluster %d, want %d", dup.Results[0].Cluster, a.IDs[0])
	}
	if len(dup.Results[0].Matches) == 0 || dup.Results[0].Matches[0].ID != a.IDs[0] {
		t.Fatalf("duplicate insert did not report its match: %+v", dup.Results[0])
	}

	// Cluster read: both members, canonical min-id cluster.
	var cl struct {
		Cluster int64   `json:"cluster"`
		Members []int64 `json:"members"`
		Size    int     `json:"size"`
	}
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/clusters/%d", ts.URL, dup.IDs[0]), nil, &cl); code != http.StatusOK {
		t.Fatalf("cluster read: code=%d", code)
	}
	if cl.Cluster != a.IDs[0] || cl.Size != 2 {
		t.Fatalf("cluster read: %+v, want cluster %d size 2", cl, a.IDs[0])
	}
	if code, eb, _ := doEnvelope(t, "GET", ts.URL+"/v1/clusters/424242", nil); code != http.StatusNotFound || eb.Error.Code != CodeNotFound {
		t.Fatalf("missing cluster: code=%d envelope=%+v", code, eb)
	}

	// Delete shrinks the cluster.
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/entities/%d", ts.URL, a.IDs[0]), nil, nil); code != http.StatusOK {
		t.Fatalf("delete: code=%d", code)
	}
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/clusters/%d", ts.URL, dup.IDs[0]), nil, &cl); code != http.StatusOK || cl.Size != 1 {
		t.Fatalf("cluster after delete: code=%d %+v", code, cl)
	}

	// Stats surface the decider and cluster counters.
	var stats struct {
		Match    *match.DeciderStats `json:"match"`
		Clusters *match.ClusterStats `json:"clusters"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: code=%d", code)
	}
	if stats.Match == nil || stats.Match.Comparisons == 0 {
		t.Fatalf("stats missing match section: %+v", stats.Match)
	}
	if stats.Clusters == nil || stats.Clusters.Entities == 0 {
		t.Fatalf("stats missing clusters section: %+v", stats.Clusters)
	}
}

// TestDirtyClustersSurviveRestart pins the recovery contract at the
// serving layer: a new server over the same resolver state rebuilds the
// same clusters the incremental path maintained.
func TestDirtyClustersSurviveRestart(t *testing.T) {
	res := mustOpen(t, epsTestConfig(), 1)
	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.9}, Dirty: true}
	ts := newMatchServer(t, res, mo)

	texts := []string{
		"canon powershot a540 digital camera",
		"canon powershot a540 digital camera",
		"nikon coolpix p50 compact",
		"nikon coolpix p50 compact",
		"seiko quartz wrist watch",
	}
	for _, x := range texts {
		if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": x}, nil); code != http.StatusOK {
			t.Fatalf("insert %q: code=%d", x, code)
		}
	}
	readClusters := func(ts *httptest.Server) map[int64]int64 {
		t.Helper()
		out := map[int64]int64{}
		for id := int64(0); id < int64(len(texts)); id++ {
			var cl struct {
				Cluster int64 `json:"cluster"`
			}
			if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/clusters/%d", ts.URL, id), nil, &cl); code != http.StatusOK {
				t.Fatalf("cluster %d: code=%d", id, code)
			}
			out[id] = cl.Cluster
		}
		return out
	}
	before := readClusters(ts)

	// "Restart": a fresh server over the same resolver must rebuild the
	// identical clusters from the resolver's state alone.
	ts2 := newMatchServer(t, res, mo)
	after := readClusters(ts2)
	for id, c := range before {
		if after[id] != c {
			t.Fatalf("cluster of %d changed across restart: %d -> %d", id, c, after[id])
		}
	}
	if before[0] != before[1] || before[2] != before[3] || before[0] == before[4] || before[2] == before[4] {
		t.Fatalf("unexpected cluster structure: %v", before)
	}
}

// TestStreamMatchMode drives the NDJSON stream in match mode: one
// decided line per record in input order, the summary reporting totals,
// and the mode gate refusing unknown modes and unconfigured servers.
func TestStreamMatchMode(t *testing.T) {
	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.85}}
	res := mustOpen(t, testConfig(), 1)
	ts := newMatchServer(t, res, mo)
	for i := 0; i < 20; i++ {
		res.Insert([]entity.Attribute{{Name: "name", Value: fmt.Sprintf("canon powershot a%d zoom kit", i)}})
	}

	feed := strings.Join([]string{
		`{"text":"canon powershot a3 zoom kit"}`,
		`{"text":"unrelated quartz watch"}`,
		`{"text":"canon powershot a7 zoom kit"}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/resolve/stream?mode=match&k=5", "application/x-ndjson", strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code=%d", resp.StatusCode)
	}
	var lines []map[string]json.RawMessage
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var m map[string]json.RawMessage
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 {
		t.Fatalf("stream emitted %d lines, want 3 records + summary", len(lines))
	}
	matched := 0
	for i, ln := range lines[:3] {
		var rec struct {
			I       int `json:"i"`
			Matches []struct {
				ID    int64   `json:"id"`
				Score float64 `json:"score"`
			} `json:"matches"`
		}
		raw, _ := json.Marshal(ln)
		if err := json.Unmarshal(raw, &rec); err != nil || rec.I != i {
			t.Fatalf("record %d: %s (err=%v)", i, raw, err)
		}
		matched += len(rec.Matches)
	}
	var sum struct {
		Done    bool `json:"done"`
		Records int  `json:"records"`
		Matches int  `json:"matches"`
	}
	raw, _ := json.Marshal(lines[3])
	if err := json.Unmarshal(raw, &sum); err != nil || !sum.Done || sum.Records != 3 {
		t.Fatalf("summary: %s (err=%v)", raw, err)
	}
	if sum.Matches != matched || matched == 0 {
		t.Fatalf("summary matches=%d, lines carried %d", sum.Matches, matched)
	}

	// Unknown mode: enveloped 400 before any streaming starts.
	if code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/resolve/stream?mode=frob", nil); code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Fatalf("bad mode: code=%d envelope=%+v", code, eb)
	}
	// mode=match without the stage: enveloped 501.
	plain, _ := newTestServer(t)
	if code, eb, _ := doEnvelope(t, "POST", plain.URL+"/v1/resolve/stream?mode=match", nil); code != http.StatusNotImplemented || eb.Error.Code != CodeMatchDisabled {
		t.Fatalf("match mode unconfigured: code=%d envelope=%+v", code, eb)
	}
}
