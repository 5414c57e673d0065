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
	"erfilter/internal/faultfs"
	"erfilter/internal/online"
)

// TestRoutingTableVersioned pins the retirement of the pre-/v1 aliases:
// /v1 is the only serving surface. Every canonical route answers, every
// retired alias answers 404 in the standard envelope (no Deprecation
// forwarding, no handler reuse), and the match-stage routes answer 501
// match_disabled on a server built without the stage.
func TestRoutingTableVersioned(t *testing.T) {
	res := mustOpen(t, testConfig(), 1)
	res.Insert([]entity.Attribute{{Name: "name", Value: "canon powershot a540"}})
	ts := httptest.NewServer(mustServer(t, res, nil, Options{}).Handler())
	defer ts.Close()

	cases := []struct {
		method, v1 string
		body       any
		want       int
	}{
		{"POST", "/v1/query", map[string]any{"text": "canon"}, http.StatusOK},
		{"POST", "/v1/query/batch", map[string]any{"queries": []map[string]any{{"text": "canon"}}}, http.StatusOK},
		{"POST", "/v1/entities", map[string]any{"text": "nikon coolpix"}, http.StatusOK},
		{"GET", "/v1/entities/0", nil, http.StatusOK},
		{"GET", "/v1/stats", nil, http.StatusOK},
		{"GET", "/v1/healthz", nil, http.StatusOK},
		{"GET", "/v1/readyz", nil, http.StatusOK},
		{"GET", "/v1/metrics", nil, http.StatusOK},
		{"GET", "/v1/snapshot", nil, http.StatusOK},
		// Match stage not configured on this server: mounted, refused
		// with a machine-readable 501.
		{"POST", "/v1/match", map[string]any{"queries": []map[string]any{{"text": "canon"}}}, http.StatusNotImplemented},
		{"GET", "/v1/clusters/0", nil, http.StatusNotImplemented},
		// Errors ride the same canonical-only registration.
		{"GET", "/v1/entities/404404", nil, http.StatusNotFound},
		{"DELETE", "/v1/entities/404404", nil, http.StatusNotFound},
	}
	do := func(method, path string, body any) *http.Response {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, c := range cases {
		rv1 := do(c.method, c.v1, c.body)
		if rv1.StatusCode != c.want {
			t.Errorf("%s %s answered %d, want %d", c.method, c.v1, rv1.StatusCode, c.want)
		}
		rv1.Body.Close()

		// The retired alias is gone: 404 in the envelope, regardless of
		// what the canonical path answers.
		legacy := strings.TrimPrefix(c.v1, "/v1")
		rlg := do(c.method, legacy, c.body)
		if rlg.StatusCode != http.StatusNotFound {
			t.Errorf("retired alias %s %s answered %d, want 404", c.method, legacy, rlg.StatusCode)
		}
		if got := rlg.Header.Get("Deprecation"); got != "" {
			t.Errorf("retired alias %s %s still carries Deprecation=%q", c.method, legacy, got)
		}
		var eb errBody
		if err := json.NewDecoder(rlg.Body).Decode(&eb); err != nil || eb.Error.Code != CodeNotFound {
			t.Errorf("retired alias %s %s: body not the 404 envelope (err=%v, code=%q)",
				c.method, legacy, err, eb.Error.Code)
		}
		rlg.Body.Close()
	}
}

// TestEnvelopeNoEndpointEscapes walks the full route table and forces an
// error out of every endpoint (a method the route does not serve), so
// no endpoint — present or future — can answer a non-2xx outside the
// JSON envelope without failing this test.
func TestEnvelopeNoEndpointEscapes(t *testing.T) {
	res := mustOpen(t, testConfig(), 1)
	s := mustServer(t, res, nil, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, rt := range s.routes() {
		path := strings.ReplaceAll(rt.pattern, "{id}", "1")
		req, err := http.NewRequest("PATCH", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PATCH %s: status %d, want 405", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("PATCH %s: Content-Type %q, want application/json", path, ct)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, rt.method) {
			t.Errorf("PATCH %s: Allow %q does not offer %s", path, allow, rt.method)
		}
		var eb errBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil ||
			eb.Error.Code != CodeMethodNotAllowed || eb.Error.Message == "" {
			t.Errorf("PATCH %s: body not the envelope (err=%v, envelope=%+v)", path, err, eb)
		}
		resp.Body.Close()
	}
}

// TestErrorEnvelopeEverywhere is the acceptance gate for the /v1 error
// contract: every way the server can refuse a request — client errors,
// unknown routes, method mismatches, shutdown, overload, degradation,
// deadline kills, panics — answers with the same JSON envelope and a
// stable machine-readable code.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	res := mustOpen(t, testConfig(), 1)
	s := mustServer(t, res, nil, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(name, method, path string, rawBody string, wantStatus int, wantCode string) http.Header {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(rawBody))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", name, ct)
		}
		var eb errBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: body is not the envelope: %v", name, err)
		}
		if eb.Error.Code != wantCode || eb.Error.Message == "" {
			t.Fatalf("%s: envelope %+v, want code %q with a message", name, eb, wantCode)
		}
		return resp.Header
	}

	check("malformed JSON", "POST", "/v1/query", "{not json", http.StatusBadRequest, CodeBadRequest)
	check("empty query", "POST", "/v1/query", "{}", http.StatusBadRequest, CodeBadRequest)
	check("negative limit", "POST", "/v1/query", `{"text":"x","limit":-1}`, http.StatusBadRequest, CodeBadRequest)
	check("empty batch", "POST", "/v1/query/batch", `{"queries":[]}`, http.StatusBadRequest, CodeBadRequest)
	check("bad id", "GET", "/v1/entities/zzz", "", http.StatusBadRequest, CodeBadRequest)
	check("missing entity", "GET", "/v1/entities/12345", "", http.StatusNotFound, CodeNotFound)
	check("unknown route", "GET", "/v1/nope", "", http.StatusNotFound, CodeNotFound)
	check("unknown route legacy", "POST", "/frobnicate", "", http.StatusNotFound, CodeNotFound)
	// A retired pre-/v1 alias is just an unknown route now.
	check("retired alias", "POST", "/query", `{"text":"x"}`, http.StatusNotFound, CodeNotFound)
	check("retired alias method", "PUT", "/entities/3", "", http.StatusNotFound, CodeNotFound)

	// Method mismatch on a known path: 405 with Allow, in the envelope.
	hdr := check("method mismatch", "GET", "/v1/query", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	if allow := hdr.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow header = %q, want POST", allow)
	}
	hdr = check("method mismatch entity", "PUT", "/v1/entities/3", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	if allow := hdr.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "DELETE") {
		t.Fatalf("405 Allow header = %q, want GET and DELETE", allow)
	}

	// Draining: write refusal and readyz both carry the code.
	s.SetDraining(true)
	hdr = check("draining insert", "POST", "/v1/entities", `{"text":"x"}`, http.StatusServiceUnavailable, CodeDraining)
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	check("draining readyz", "GET", "/v1/readyz", "", http.StatusServiceUnavailable, CodeDraining)
	s.SetDraining(false)

	// Admission shed: zero-capacity queue (WriteQueue forced to 1, then
	// occupied) is covered by TestOverloadSheds; here pin the envelope by
	// filling the queue synchronously.
	s2 := mustServer(t, mustOpen(t, testConfig(), 1), nil, Options{WriteQueue: 1})
	s2.admit <- struct{}{} // occupy the only token
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/v1/entities", "application/json", strings.NewReader(`{"text":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errBody
	if json.NewDecoder(resp.Body).Decode(&eb); resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeOverloaded {
		t.Fatalf("overload shed: status=%d envelope=%+v", resp.StatusCode, eb)
	}
	resp.Body.Close()

	// Degraded store 503: WAL failure propagates as code "degraded".
	m := faultfs.NewMem()
	dts, _ := newDurableTestServer(t, m, 0)
	m.FailAllSyncs(true)
	req, _ := http.NewRequest("POST", dts.URL+"/v1/entities", strings.NewReader(`{"text":"x"}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	eb = errBody{}
	if json.NewDecoder(resp.Body).Decode(&eb); resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("degraded insert: status=%d envelope=%+v", resp.StatusCode, eb)
	}
	resp.Body.Close()

	// Deadline kill: a server with a tiny timeout answers 503 in the
	// envelope (the stall comes from holding the snapshot build hostage is
	// not injectable here, so drive the middleware pair directly).
	release := make(chan struct{})
	defer close(release)
	slow := s.instrument("envelope_slow", timeoutJSON(20*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})))
	rec := httptest.NewRecorder()
	slow.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", nil))
	eb = errBody{}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusServiceUnavailable || eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("timeout: status=%d body=%q err=%v", rec.Code, rec.Body.String(), err)
	}

	// Panic: 500 in the envelope.
	ph := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }))
	rec = httptest.NewRecorder()
	ph.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	eb = errBody{}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Error.Code != CodeInternal {
		t.Fatalf("panic: status=%d body=%q err=%v", rec.Code, rec.Body.String(), err)
	}
}

// TestQueryBatchEndpoint checks /v1/query/batch answers exactly what the
// single endpoint answers per query, against one snapshot, and rejects
// malformed batches with indexed errors.
func TestQueryBatchEndpoint(t *testing.T) {
	ts, res := newTestServer(t)
	for i := 0; i < 30; i++ {
		res.Insert([]entity.Attribute{{Name: "name", Value: fmt.Sprintf("canon powershot a%d zoom", i)}})
		res.Insert([]entity.Attribute{{Name: "name", Value: fmt.Sprintf("nikon coolpix p%d wide", i)}})
	}

	queries := []map[string]any{
		{"text": "canon powershot a7"},
		{"text": "nikon coolpix p12"},
		{"attrs": map[string]string{"name": "canon zoom a21"}},
	}
	var batch struct {
		Epoch    uint64 `json:"epoch"`
		Entities int    `json:"entities"`
		Results  []struct {
			Candidates []struct {
				ID    int64   `json:"id"`
				Score float64 `json:"score"`
			} `json:"candidates"`
		} `json:"results"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query/batch", map[string]any{
		"queries": queries, "k": 4,
	}, &batch); code != http.StatusOK {
		t.Fatalf("batch query code=%d", code)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch.Results), len(queries))
	}
	for i, q := range queries {
		var single struct {
			Candidates []struct {
				ID    int64   `json:"id"`
				Score float64 `json:"score"`
			} `json:"candidates"`
		}
		body := map[string]any{"k": 4}
		for k, v := range q {
			body[k] = v
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/query", body, &single); code != http.StatusOK {
			t.Fatalf("single query %d code=%d", i, code)
		}
		jb, _ := json.Marshal(batch.Results[i].Candidates)
		js, _ := json.Marshal(single.Candidates)
		if !bytes.Equal(jb, js) {
			t.Fatalf("query %d: batch answered %s, single answered %s", i, jb, js)
		}
	}

	// An invalid member is rejected with its index.
	code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/query/batch", map[string]any{
		"queries": []map[string]any{{"text": "fine"}, {}},
	})
	if code != http.StatusBadRequest || !strings.Contains(eb.Error.Message, "query 1") {
		t.Fatalf("bad member: code=%d envelope=%+v", code, eb)
	}

	// Oversized batches are refused outright.
	big := make([]map[string]any, DefaultMaxBatch+1)
	for i := range big {
		big[i] = map[string]any{"text": "x"}
	}
	if code, _, _ := doEnvelope(t, "POST", ts.URL+"/v1/query/batch", map[string]any{"queries": big}); code != http.StatusBadRequest {
		t.Fatalf("oversized batch code=%d", code)
	}
}

// TestShardedServingEndToEnd serves a sharded resolver through the same
// handler and checks it answers byte-identically to a single-resolver
// server on the same data, including the batch endpoint, and reports
// per-shard stats.
func TestShardedServingEndToEnd(t *testing.T) {
	single := mustOpen(t, testConfig(), 1)
	sharded := mustOpen(t, testConfig(), 4)
	tsS := httptest.NewServer(mustServer(t, single, nil, Options{}).Handler())
	defer tsS.Close()
	tsH := httptest.NewServer(mustServer(t, sharded, nil, Options{}).Handler())
	defer tsH.Close()

	// Same inserts through both HTTP surfaces: ids are allocated in batch
	// order on both, so they coincide.
	var entities []map[string]any
	for i := 0; i < 60; i++ {
		entities = append(entities, map[string]any{
			"text": fmt.Sprintf("entity %d canon powershot model a%d", i, i%17),
		})
	}
	for _, ts := range []*httptest.Server{tsS, tsH} {
		var out struct {
			IDs []int64 `json:"ids"`
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"entities": entities}, &out); code != http.StatusOK || len(out.IDs) != len(entities) {
			t.Fatalf("bulk insert: code=%d ids=%d", code, len(out.IDs))
		}
	}
	// Delete the same entity on both.
	for _, ts := range []*httptest.Server{tsS, tsH} {
		if code := doJSON(t, "DELETE", ts.URL+"/v1/entities/7", nil, nil); code != http.StatusOK {
			t.Fatalf("delete: code=%d", code)
		}
	}

	for i := 0; i < 10; i++ {
		body := map[string]any{"text": fmt.Sprintf("canon powershot a%d", i), "k": 5}
		var a, b json.RawMessage
		var outA, outB struct {
			Candidates json.RawMessage `json:"candidates"`
		}
		if code := doJSON(t, "POST", tsS.URL+"/v1/query", body, &outA); code != http.StatusOK {
			t.Fatalf("single query code=%d", code)
		}
		if code := doJSON(t, "POST", tsH.URL+"/v1/query", body, &outB); code != http.StatusOK {
			t.Fatalf("sharded query code=%d", code)
		}
		a, b = outA.Candidates, outB.Candidates
		if !bytes.Equal(a, b) {
			t.Fatalf("query %d: single answered %s, sharded answered %s", i, a, b)
		}
	}

	// Batch endpoint parity across the two servers.
	queries := []map[string]any{
		{"text": "canon powershot a3"}, {"text": "canon a11 model"}, {"text": "entity 42"},
	}
	var batchA, batchB struct {
		Results json.RawMessage `json:"results"`
	}
	if code := doJSON(t, "POST", tsS.URL+"/v1/query/batch", map[string]any{"queries": queries, "k": 3}, &batchA); code != http.StatusOK {
		t.Fatalf("single batch code=%d", code)
	}
	if code := doJSON(t, "POST", tsH.URL+"/v1/query/batch", map[string]any{"queries": queries, "k": 3}, &batchB); code != http.StatusOK {
		t.Fatalf("sharded batch code=%d", code)
	}
	if !bytes.Equal(batchA.Results, batchB.Results) {
		t.Fatalf("batch: single answered %s, sharded answered %s", batchA.Results, batchB.Results)
	}

	// Sharded stats expose the partition layout.
	var stats struct {
		Resolver online.Stats `json:"resolver"`
	}
	if code := doJSON(t, "GET", tsH.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("sharded stats code=%d", code)
	}
	if stats.Resolver.Shards != 4 || len(stats.Resolver.PerShard) != 4 {
		t.Fatalf("sharded stats: %+v", stats.Resolver)
	}
	if stats.Resolver.SizeSkew < 1 {
		t.Fatalf("size skew %v must be >= 1", stats.Resolver.SizeSkew)
	}

	// The sharded snapshot stream loads back into any shard count.
	resp, err := http.Get(tsH.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := online.Load(resp.Body, online.Config{}, 2)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replica.Len() != sharded.Len() {
		t.Fatalf("replica has %d entities, want %d", replica.Len(), sharded.Len())
	}
}

// TestShardedDurableServing serves a sharded WAL-backed store over HTTP,
// degrades one shard's disk, and checks the whole write path turns 503
// "degraded" while reads keep answering.
func TestShardedDurableServingDegraded(t *testing.T) {
	m := faultfs.NewMem()
	ss, err := online.OpenStore("shardedwal", testConfig(), 3, online.StoreOptions{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	s := mustServer(t, ss.Resolver(), ss, Options{RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out struct {
		IDs []int64 `json:"ids"`
	}
	ents := make([]map[string]any, 20)
	for i := range ents {
		ents[i] = map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"entities": ents}, &out); code != http.StatusOK {
		t.Fatalf("sharded durable insert: code=%d", code)
	}

	m.FailAllSyncs(true)
	code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": "doomed"})
	if code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("degraded sharded insert: code=%d envelope=%+v", code, eb)
	}
	if code, eb, _ := doEnvelope(t, "GET", ts.URL+"/v1/readyz", nil); code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("sharded readyz: code=%d envelope=%+v", code, eb)
	}
	var q struct {
		Candidates []struct{ ID int64 } `json:"candidates"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "canon powershot a3"}, &q); code != http.StatusOK || len(q.Candidates) == 0 {
		t.Fatalf("degraded sharded query: code=%d candidates=%v", code, q.Candidates)
	}
	var stats struct {
		Store online.StoreStats `json:"store"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || !stats.Store.Degraded || stats.Store.Shards != 3 {
		t.Fatalf("sharded store stats: code=%d %+v", code, stats.Store)
	}
}

// TestInsertRefusesEntityTheFormatsCannotHold: with the body cap raised
// past 16 MiB an attribute value can outgrow what any persisted format
// stores. The insert is refused whole — 413 entity_too_large, volatile
// and durable alike — instead of being acknowledged into a WAL whose
// checkpoint could never be loaded again.
func TestInsertRefusesEntityTheFormatsCannotHold(t *testing.T) {
	store, err := online.OpenStore("walstore", testConfig(), 1, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opt := Options{MaxBody: 64 << 20, RequestTimeout: 30 * time.Second}
	over := map[string]any{"attrs": map[string]string{"blob": strings.Repeat("x", 1<<24+1)}}
	for name, srv := range map[string]*Server{
		"volatile": mustServer(t, mustOpen(t, testConfig(), 1), nil, opt),
		"durable":  mustServer(t, store.Resolver(), store, opt),
	} {
		ts := httptest.NewServer(srv.Handler())
		for _, body := range []any{over, map[string]any{"entities": []any{map[string]any{"text": "fits"}, over}}} {
			code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/entities", body)
			if code != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeEntityTooLarge {
				t.Fatalf("%s: oversized entity: code=%d envelope=%+v", name, code, eb)
			}
		}
		if n := srv.Resolver().Len(); n != 0 {
			t.Fatalf("%s: %d entities of refused inserts are resident", name, n)
		}
		ts.Close()
	}
}
