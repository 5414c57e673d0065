package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

func testConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3, Clean: true,
	}
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

func mustServer(tb testing.TB, res *online.Resolver, store *online.Store, opt Options) *Server {
	tb.Helper()
	s, err := NewServer(res, store, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*httptest.Server, *online.Resolver) {
	t.Helper()
	res := mustOpen(t, testConfig(), 1)
	ts := httptest.NewServer(mustServer(t, res, nil, Options{RequestTimeout: 10 * time.Second}).Handler())
	t.Cleanup(ts.Close)
	return ts, res
}

// newDurableTestServer serves a WAL-backed store on an injectable
// in-memory file system, the bench for the failure-mode tests.
func newDurableTestServer(t *testing.T, m *faultfs.Mem, writeQueue int) (*httptest.Server, *online.Store) {
	t.Helper()
	store, err := online.OpenStore("walstore", testConfig(), 1, online.StoreOptions{FS: m})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := mustServer(t, store.Resolver(), store, Options{
		WriteQueue: writeQueue, RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return ts, store
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// doEnvelope performs a request expected to fail and decodes the error
// envelope, failing the test when the body is not the envelope shape.
func doEnvelope(t *testing.T, method, url string, body any) (int, errBody, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%s %s: response is not the JSON envelope: %v", method, url, err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("%s %s: envelope missing code or message: %+v", method, url, eb)
	}
	return resp.StatusCode, eb, resp.Header
}

func TestServerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Insert a batch, then one more entity.
	var ins struct {
		IDs   []int64 `json:"ids"`
		Epoch uint64  `json:"epoch"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{
		"entities": []map[string]any{
			{"attrs": map[string]string{"name": "canon powershot a540", "price": "199"}},
			{"attrs": map[string]string{"name": "nikon coolpix p100", "price": "299"}},
			{"text": "sony cybershot dsc w55"},
		},
	}, &ins)
	if code != http.StatusOK || len(ins.IDs) != 3 {
		t.Fatalf("batch insert: code=%d ids=%v", code, ins.IDs)
	}
	var one struct {
		IDs []int64 `json:"ids"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{
		"attrs": map[string]string{"name": "apple ipod nano"},
	}, &one); code != http.StatusOK || len(one.IDs) != 1 || one.IDs[0] != 3 {
		t.Fatalf("single insert: code=%d ids=%v", code, one.IDs)
	}

	// Query finds the canon entity first.
	var q struct {
		Epoch      uint64 `json:"epoch"`
		Entities   int    `json:"entities"`
		Candidates []struct {
			ID    int64   `json:"id"`
			Score float64 `json:"score"`
		} `json:"candidates"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"attrs": map[string]string{"name": "canon power shot a540"}, "k": 2,
	}, &q); code != http.StatusOK {
		t.Fatalf("query code=%d", code)
	}
	if q.Entities != 4 || len(q.Candidates) == 0 || q.Candidates[0].ID != ins.IDs[0] {
		t.Fatalf("query result: %+v", q)
	}

	// Get echoes stored attributes.
	var got struct {
		ID    int64 `json:"id"`
		Attrs []struct{ Name, Value string }
	}
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/entities/%d", ts.URL, ins.IDs[0]), nil, &got); code != http.StatusOK {
		t.Fatalf("get code=%d", code)
	}
	if len(got.Attrs) != 2 || got.Attrs[0].Name != "name" {
		t.Fatalf("get attrs: %+v", got)
	}

	// Delete, then the entity is gone from queries and GETs.
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/entities/%d", ts.URL, ins.IDs[0]), nil, nil); code != http.StatusOK {
		t.Fatalf("delete code=%d", code)
	}
	if code, eb, _ := doEnvelope(t, "DELETE", fmt.Sprintf("%s/v1/entities/%d", ts.URL, ins.IDs[0]), nil); code != http.StatusNotFound || eb.Error.Code != CodeNotFound {
		t.Fatalf("double delete: code=%d envelope=%+v", code, eb)
	}
	if code, eb, _ := doEnvelope(t, "GET", fmt.Sprintf("%s/v1/entities/%d", ts.URL, ins.IDs[0]), nil); code != http.StatusNotFound || eb.Error.Code != CodeNotFound {
		t.Fatalf("get after delete: code=%d envelope=%+v", code, eb)
	}
	q.Candidates = nil
	doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "canon powershot a540"}, &q)
	for _, c := range q.Candidates {
		if c.ID == ins.IDs[0] {
			t.Fatalf("deleted entity still served: %+v", q)
		}
	}

	// Bad requests are 4xx in the envelope, not 5xx.
	if code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/query", map[string]any{}); code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Fatalf("empty query: code=%d envelope=%+v", code, eb)
	}
	if code, eb, _ := doEnvelope(t, "GET", ts.URL+"/v1/entities/notanumber", nil); code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
		t.Fatalf("bad id: code=%d envelope=%+v", code, eb)
	}

	// Healthz and stats.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	var stats struct {
		Resolver  online.Stats `json:"resolver"`
		Endpoints map[string]struct {
			Count  int64 `json:"count"`
			Errors int64 `json:"errors"`
		} `json:"endpoints"`
		UptimeS float64 `json:"uptime_s"`
		Panics  int64   `json:"panics"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats code=%d", code)
	}
	if stats.Resolver.Entities != 3 || stats.Resolver.Inserts != 4 || stats.Resolver.Deletes != 1 {
		t.Fatalf("resolver stats: %+v", stats.Resolver)
	}
	if stats.Endpoints["query"].Count < 2 || stats.Endpoints["insert"].Count != 2 {
		t.Fatalf("endpoint counters: %+v", stats.Endpoints)
	}
	if stats.Endpoints["delete"].Errors != 1 {
		t.Fatalf("delete error counter: %+v", stats.Endpoints)
	}
}

// TestServerSnapshotStream round-trips the resolver through the
// GET /v1/snapshot endpoint and checks the loaded replica answers
// queries identically.
func TestServerSnapshotStream(t *testing.T) {
	ts, res := newTestServer(t)
	for i := 0; i < 20; i++ {
		res.Insert([]entity.Attribute{{Name: "name", Value: fmt.Sprintf("entity number %d canon", i)}})
	}
	res.Delete(4)

	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	replica, err := online.Load(resp.Body, online.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := []entity.Attribute{{Name: "name", Value: "canon entity number 7"}}
	a := res.Query(q, online.QueryOptions{K: 5})
	b := replica.Query(q, online.QueryOptions{K: 5})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("replica answers differ: %s vs %s", ja, jb)
	}
}

// TestHealthzVsReadyz pins the liveness/readiness split: /v1/healthz
// stays green as long as the process serves, /v1/readyz reflects
// writability.
func TestHealthzVsReadyz(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on healthy server: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}

	m := faultfs.NewMem()
	dts, _ := newDurableTestServer(t, m, 0)
	m.FailAllSyncs(true)
	if code := doJSON(t, "POST", dts.URL+"/v1/entities", map[string]any{"text": "doomed"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("insert on broken disk: code=%d", code)
	}
	code, eb, _ := doEnvelope(t, "GET", dts.URL+"/v1/readyz", nil)
	if code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded || !strings.Contains(eb.Error.Message, "degraded") {
		t.Fatalf("readyz on degraded store: %d %+v", code, eb)
	}
	resp, err := http.Get(dts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on degraded store must stay ok: %v %v", err, resp)
	}
	resp.Body.Close()
}

// TestDegradedReadOnlyServing: after a WAL disk failure writes fail fast
// with 503 (code "degraded") while queries keep answering from the last
// good epoch.
func TestDegradedReadOnlyServing(t *testing.T) {
	m := faultfs.NewMem()
	ts, store := newDurableTestServer(t, m, 0)
	if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{
		"text": "canon powershot a540 camera",
	}, nil); code != http.StatusOK {
		t.Fatalf("healthy insert: code=%d", code)
	}
	m.FailAllSyncs(true)
	if code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": "lost"}); code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("degraded insert: code=%d envelope=%+v", code, eb)
	}
	m.FailAllSyncs(false) // disk heals, but the poisoned log stays read-only
	if code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": "still rejected"}); code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("insert after heal: code=%d envelope=%+v", code, eb)
	}
	if code, eb, _ := doEnvelope(t, "DELETE", ts.URL+"/v1/entities/0", nil); code != http.StatusServiceUnavailable || eb.Error.Code != CodeDegraded {
		t.Fatalf("degraded delete: code=%d envelope=%+v", code, eb)
	}
	var q struct {
		Candidates []struct{ ID int64 } `json:"candidates"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "canon a540"}, &q); code != http.StatusOK || len(q.Candidates) == 0 {
		t.Fatalf("degraded query: code=%d candidates=%v", code, q.Candidates)
	}
	var stats struct {
		Store online.StoreStats `json:"store"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || !stats.Store.Degraded {
		t.Fatalf("stats must report degradation: code=%d %+v", code, stats.Store)
	}
	_ = store
}

// TestOverloadSheds fills the write-admission queue with a write stalled
// in fsync and checks further writes are shed immediately with 503 +
// Retry-After (code "overloaded") while reads keep succeeding.
func TestOverloadSheds(t *testing.T) {
	m := faultfs.NewMem()
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	ts, _ := newDurableTestServer(t, m, 1)
	// Stall fsyncs only from here on, so store open ran unimpeded.
	m.BeforeSync = func(string) { <-gate }

	stalled := make(chan int, 1)
	go func() {
		stalled <- doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": "slow disk write"}, nil)
	}()
	// Wait until the stalled write holds the only admission token.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			WriteQueue struct{ Depth, Capacity int } `json:"write_queue"`
		}
		doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
		if stats.WriteQueue.Depth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled write never occupied the admission queue")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The queue is full: writes shed with 503 + Retry-After, fast.
	begin := time.Now()
	code, eb, hdr := doEnvelope(t, "POST", ts.URL+"/v1/entities", map[string]any{"text": "shed me"})
	if code != http.StatusServiceUnavailable || eb.Error.Code != CodeOverloaded {
		t.Fatalf("overloaded insert: code=%d envelope=%+v", code, eb)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("shedding took %v, must be immediate", d)
	}
	// Reads are not admission-gated and still succeed.
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "anything"}, nil); code != http.StatusOK {
		t.Fatalf("query during overload: code=%d", code)
	}
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during overload: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Release the disk: the stalled write completes and was never lost.
	openGate()
	if code := <-stalled; code != http.StatusOK {
		t.Fatalf("stalled write finished with %d", code)
	}
}

// TestPanicRecovery drives a panicking handler through the middleware:
// the client gets a 500 in the envelope and the counter moves; the
// daemon does not die.
func TestPanicRecovery(t *testing.T) {
	s := mustServer(t, mustOpen(t, testConfig(), 1), nil, Options{})
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/anything", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d", rec.Code)
	}
	var eb errBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeInternal {
		t.Fatalf("panic response is not the envelope: %q (%v)", rec.Body.String(), err)
	}
	if s.panics.Value() != 1 {
		t.Fatalf("panic counter = %d", s.panics.Value())
	}
}

// TestTimeoutCountedAsError is the regression test for the serving-path
// blind spot: a handler killed by the per-request deadline used to be
// recorded as a 200 (the instrumentation sat inside the timeout wrapper
// and never saw the 503 http.TimeoutHandler wrote), and the timeout body
// went out as text/html. The middleware is composed the other way —
// instrument(timeoutJSON(handler)) — so the observation happens on the
// outermost writer and the body is the standard envelope.
func TestTimeoutCountedAsError(t *testing.T) {
	s := mustServer(t, mustOpen(t, testConfig(), 1), nil, Options{})
	release := make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		writeJSON(w, http.StatusOK, map[string]string{"never": "sent"})
	})
	// Compose exactly as Handler() does for JSON endpoints.
	h := s.instrument("slow", timeoutJSON(30*time.Millisecond, slow))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/slow", nil))

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request answered %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout response Content-Type = %q, want application/json", ct)
	}
	var eb errBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("timeout body is not the JSON error envelope: %q (%v)", rec.Body.String(), err)
	}

	st := s.eps["slow"]
	if got := st.errors.Value(); got != 1 {
		t.Fatalf("timed-out request incremented the error counter by %d, want 1", got)
	}
	if got := st.hist.Count(); got != 1 {
		t.Fatalf("timed-out request recorded %d latency observations, want 1", got)
	}
	// The recorded latency is the deadline the client waited out, not the
	// inner handler's (unfinished) duration.
	if snap := st.hist.Snapshot(); snap.Max < (30 * time.Millisecond).Nanoseconds() {
		t.Fatalf("recorded latency %dns is shorter than the 30ms deadline", snap.Max)
	}

	// A fast request through the same chain keeps its own Content-Type
	// and does not move the error counter.
	rec = httptest.NewRecorder()
	fast := s.instrument("fast", timeoutJSON(time.Second, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})))
	fast.ServeHTTP(rec, httptest.NewRequest("GET", "/fast", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/plain" {
		t.Fatalf("fast path: code=%d ct=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := s.eps["fast"].errors.Value(); got != 0 {
		t.Fatalf("fast request moved the error counter to %d", got)
	}
}

// TestQueryLimit pins the candidate-list cap and its edge cases: an
// unbounded match set is truncated to the requested limit and flagged;
// limit 0 explicitly selects the default; a negative limit is a 400 in
// the envelope — on both /v1/query and /v1/query/batch.
func TestQueryLimit(t *testing.T) {
	ts, res := newTestServer(t)
	for i := 0; i < 8; i++ {
		res.Insert([]entity.Attribute{{Name: "name", Value: fmt.Sprintf("canon powershot a%d", i)}})
	}

	var q struct {
		Candidates []struct{ ID int64 } `json:"candidates"`
		Truncated  bool                 `json:"truncated"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text": "canon powershot", "k": 8, "limit": 3,
	}, &q); code != http.StatusOK {
		t.Fatalf("limited query code=%d", code)
	}
	if len(q.Candidates) != 3 || !q.Truncated {
		t.Fatalf("limit=3 returned %d candidates truncated=%v", len(q.Candidates), q.Truncated)
	}

	// Under the limit: the full candidate list, no truncation flag. (The
	// kNN search keeps ties at the k-th score, so assert the bound, not
	// an exact count.)
	q.Candidates, q.Truncated = nil, false
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text": "canon powershot", "k": 2, "limit": 100,
	}, &q); code != http.StatusOK {
		t.Fatalf("unlimited query code=%d", code)
	}
	if len(q.Candidates) == 0 || len(q.Candidates) > 8 || q.Truncated {
		t.Fatalf("k=2 limit=100 returned %d candidates truncated=%v", len(q.Candidates), q.Truncated)
	}

	// limit 0 is explicitly the default, not an error and not "none".
	q.Candidates, q.Truncated = nil, false
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text": "canon powershot", "k": 2, "limit": 0,
	}, &q); code != http.StatusOK || len(q.Candidates) == 0 || q.Truncated {
		t.Fatalf("limit=0 (default): code=%d candidates=%d truncated=%v", code, len(q.Candidates), q.Truncated)
	}

	// A negative limit is a client error in the envelope, on both the
	// single and the batch endpoint.
	code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/query", map[string]any{"text": "canon", "limit": -1})
	if code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest || !strings.Contains(eb.Error.Message, "limit") {
		t.Fatalf("negative limit: code=%d envelope=%+v", code, eb)
	}
	code, eb, _ = doEnvelope(t, "POST", ts.URL+"/v1/query/batch", map[string]any{
		"queries": []map[string]any{{"text": "canon"}}, "limit": -5,
	})
	if code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest || !strings.Contains(eb.Error.Message, "limit") {
		t.Fatalf("negative batch limit: code=%d envelope=%+v", code, eb)
	}
}

// TestQueryTrace checks "trace":true returns the per-phase breakdown of
// that one request without disturbing the normal response shape.
func TestQueryTrace(t *testing.T) {
	ts, res := newTestServer(t)
	res.Insert([]entity.Attribute{{Name: "name", Value: "canon powershot a540"}})

	var q struct {
		Candidates []struct{ ID int64 } `json:"candidates"`
		Trace      *struct {
			Epoch      uint64 `json:"epoch"`
			EncodeUS   int64  `json:"encode_us"`
			SearchUS   int64  `json:"search_us"`
			Rounds     int    `json:"rounds"`
			Candidates int    `json:"candidates"`
		} `json:"trace"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text": "canon powershot", "trace": true,
	}, &q); code != http.StatusOK {
		t.Fatalf("traced query code=%d", code)
	}
	if q.Trace == nil {
		t.Fatal("trace requested but absent from the response")
	}
	if q.Trace.Candidates < len(q.Candidates) || q.Trace.EncodeUS < 0 || q.Trace.SearchUS < 0 || q.Trace.Rounds != 1 {
		t.Fatalf("implausible trace: %+v", *q.Trace)
	}

	q.Trace = nil
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text": "canon powershot",
	}, &q); code != http.StatusOK || q.Trace != nil {
		t.Fatalf("untraced query: code=%d trace=%+v", code, q.Trace)
	}
}

// TestStatusWriterFlusher pins that the instrumentation wrapper does not
// hide http.Flusher from streaming handlers (/v1/snapshot flushes while
// writing the collection).
func TestStatusWriterFlusher(t *testing.T) {
	var _ http.Flusher = (*statusWriter)(nil) // interface is satisfied

	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	f, ok := any(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not satisfy http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}

	// A non-flushing underlying writer must not panic.
	sw = &statusWriter{ResponseWriter: nopWriter{httptest.NewRecorder()}, status: http.StatusOK}
	sw.Flush()
}

// nopWriter hides every optional interface of the wrapped writer.
type nopWriter struct{ w http.ResponseWriter }

func (n nopWriter) Header() http.Header         { return n.w.Header() }
func (n nopWriter) Write(b []byte) (int, error) { return n.w.Write(b) }
func (n nopWriter) WriteHeader(code int)        { n.w.WriteHeader(code) }

// TestPprofGating: the profiling endpoints exist only behind Pprof.
func TestPprofGating(t *testing.T) {
	s := mustServer(t, mustOpen(t, testConfig(), 1), nil, Options{})
	off := httptest.NewServer(s.Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without Pprof: %d", resp.StatusCode)
	}

	s2 := mustServer(t, mustOpen(t, testConfig(), 1), nil, Options{Pprof: true})
	on := httptest.NewServer(s2.Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not served with Pprof: %d", resp.StatusCode)
	}
}
