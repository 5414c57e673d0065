package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/online"
)

// annConfigs returns a flat and an HNSW dense config that differ only
// in the index, so the flat server is the exact oracle for the other.
func annConfigs() (flat, hnsw online.Config) {
	flat = online.Config{Method: online.FlatKNN, K: 3, Metric: knn.L2Squared, Dim: 32}
	hnsw = flat
	hnsw.Dense = online.DenseHNSW
	hnsw.HNSW = knn.HNSWParams{Seed: 7}
	return flat, hnsw
}

// TestQueryANNKnobs drives the "ef" and "approx" request fields through
// /v1/query and /v1/query/batch against an HNSW-backed resolver:
// "approx": false must answer byte-identically to a flat oracle server,
// the approximate default must hold the recall gate on this small
// collection, a widened "ef" must stay valid, and a negative "ef" is a
// bad request.
func TestQueryANNKnobs(t *testing.T) {
	flatCfg, hnswCfg := annConfigs()
	oracle := mustOpen(t, flatCfg, 1)
	res := mustOpen(t, hnswCfg, 1)
	for i := 0; i < 120; i++ {
		attrs := []entity.Attribute{{Name: "text", Value: fmt.Sprintf("item %d of corpus %d", i, i%7)}}
		oracle.Insert(attrs)
		res.Insert(attrs)
	}
	tsO := httptest.NewServer(mustServer(t, oracle, nil, Options{RequestTimeout: 10 * time.Second}).Handler())
	defer tsO.Close()
	ts := httptest.NewServer(mustServer(t, res, nil, Options{RequestTimeout: 10 * time.Second}).Handler())
	defer ts.Close()

	type queryResp struct {
		Candidates []hit.Hit `json:"candidates"`
	}
	exact := false
	for _, probe := range []string{"item 3 of corpus 3", "item 90 of corpus 6", "unseen probe"} {
		var want, got, approx queryResp
		if code := doJSON(t, "POST", tsO.URL+"/v1/query", map[string]any{"text": probe, "k": 5}, &want); code != 200 {
			t.Fatalf("oracle query: status %d", code)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/query",
			map[string]any{"text": probe, "k": 5, "approx": &exact}, &got); code != 200 {
			t.Fatalf("exact query: status %d", code)
		}
		if !reflect.DeepEqual(got.Candidates, want.Candidates) {
			t.Fatalf("probe %q: approx:false diverged from flat oracle:\n got %v\nwant %v", probe, got.Candidates, want.Candidates)
		}
		// The approximate path with a widened beam: every candidate must
		// score at or above the oracle's worst (tie-tolerant recall 1.0
		// at 120 entities is what the knn gate guarantees).
		if code := doJSON(t, "POST", ts.URL+"/v1/query",
			map[string]any{"text": probe, "k": 5, "ef": 128}, &approx); code != 200 {
			t.Fatalf("approx query: status %d", code)
		}
		if len(approx.Candidates) != len(want.Candidates) {
			t.Fatalf("probe %q: approx returned %d candidates, oracle %d", probe, len(approx.Candidates), len(want.Candidates))
		}
		cutoff := want.Candidates[len(want.Candidates)-1].Score
		for _, c := range approx.Candidates {
			if c.Score < cutoff {
				t.Fatalf("probe %q: approx candidate %v below oracle cutoff %v", probe, c, cutoff)
			}
		}
	}

	// Batch form: approx:false must match the oracle's batch answers.
	batch := map[string]any{
		"queries": []map[string]string{{"text": "item 11 of corpus 4"}, {"text": "item 44 of corpus 2"}},
		"k":       4, "approx": &exact,
	}
	type batchResp struct {
		Results []struct {
			Candidates []hit.Hit `json:"candidates"`
		} `json:"results"`
	}
	var wantB, gotB batchResp
	oracleBatch := map[string]any{"queries": batch["queries"], "k": 4}
	if code := doJSON(t, "POST", tsO.URL+"/v1/query/batch", oracleBatch, &wantB); code != 200 {
		t.Fatalf("oracle batch: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query/batch", batch, &gotB); code != 200 {
		t.Fatalf("exact batch: status %d", code)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("batch approx:false diverged:\n got %+v\nwant %+v", gotB, wantB)
	}

	// Validation: a negative beam is a client error on both endpoints.
	var eb errBody
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "x", "ef": -1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("ef=-1 on /v1/query: status %d, want 400", code)
	}
	if eb.Error.Code != CodeBadRequest {
		t.Fatalf("ef=-1 error code %q", eb.Error.Code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query/batch",
		map[string]any{"queries": []map[string]string{{"text": "x"}}, "ef": -1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("ef=-1 on /v1/query/batch: status %d, want 400", code)
	}

	// The knobs are harmless on exact indexes: the flat oracle accepts
	// them and ignores both.
	var flatGot queryResp
	if code := doJSON(t, "POST", tsO.URL+"/v1/query",
		map[string]any{"text": "item 3 of corpus 3", "k": 5, "ef": 64, "approx": &exact}, &flatGot); code != 200 {
		t.Fatalf("flat server with ANN knobs: status %d", code)
	}
}
