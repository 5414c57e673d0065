package serve

// Tests of the bounded-ingestion surface: the per-request body caps,
// the batch cap, the NDJSON resolve stream (against every serving
// topology — single, sharded, proxied), the proxy's hop-by-hop header
// hygiene, and the predicate DSL on the query endpoints. The bulk gate
// at the bottom (TestBulkStreamGate) is the `make bulk` target: a
// 100k-row feed against a live index must complete with bounded heap
// growth and answer byte-identically to /v1/query/batch.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"erfilter/internal/entity"
)

// topo is one serving topology under test; all three answer the same
// HTTP surface over the same data.
type topo struct {
	name string
	url  string
}

// newTopologies builds a single-resolver server, a 3-way sharded server
// and a proxy fronting the single server, all under the same ingestion
// caps, and loads the same entities into both resolvers.
func newTopologies(t *testing.T, opt Options, entities []map[string]any) []topo {
	t.Helper()
	single := mustOpen(t, testConfig(), 1)
	sharded := mustOpen(t, testConfig(), 3)
	tsS := httptest.NewServer(mustServer(t, single, nil, opt).Handler())
	t.Cleanup(tsS.Close)
	tsH := httptest.NewServer(mustServer(t, sharded, nil, opt).Handler())
	t.Cleanup(tsH.Close)
	if len(entities) > 0 {
		for _, ts := range []*httptest.Server{tsS, tsH} {
			var out struct {
				IDs []int64 `json:"ids"`
			}
			if code := doJSON(t, "POST", ts.URL+"/v1/entities", map[string]any{"entities": entities}, &out); code != http.StatusOK || len(out.IDs) != len(entities) {
				t.Fatalf("seeding entities: code=%d ids=%d", code, len(out.IDs))
			}
		}
	}
	proxy, err := NewProxy([]string{tsS.URL}, ProxyOptions{ProbeEvery: time.Hour, MaxBody: opt.MaxBody})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(proxy.Close)
	tsP := httptest.NewServer(proxy.Handler())
	t.Cleanup(tsP.Close)
	return []topo{{"single", tsS.URL}, {"sharded", tsH.URL}, {"proxied", tsP.URL}}
}

// streamLine is any line of a resolve-stream response; exactly one of
// Candidates, Error or Done is meaningful per line.
type streamLine struct {
	I          int             `json:"i"`
	Candidates json.RawMessage `json:"candidates"`
	Truncated  bool            `json:"truncated"`
	Error      *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
	Done    bool   `json:"done"`
	Records int    `json:"records"`
	Results int    `json:"results"`
	Errors  int    `json:"errors"`
	Plan    string `json:"plan"`
}

// doStream posts an NDJSON feed and decodes every response line. The
// final line must be the summary.
func doStream(t *testing.T, url, feed string) (lines []streamLine, summary streamLine) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(feed))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: code=%d body=%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream: Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stream: bad response line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: reading response: %v", err)
	}
	if len(lines) == 0 || !lines[len(lines)-1].Done {
		t.Fatalf("stream: response did not end in a summary line: %+v", lines)
	}
	return lines[:len(lines)-1], lines[len(lines)-1]
}

// TestOversizedIngestion drives every bound past its cap on every
// topology: an oversized JSON body answers 413 in the uniform envelope
// (from the backend directly and from the proxy's own cap), an
// oversized batch answers 400, and an oversized NDJSON line terminates
// the stream with a request_too_large error line — after the records
// before it already answered — and still emits the summary.
func TestOversizedIngestion(t *testing.T) {
	opt := Options{MaxBody: 4096, MaxBatch: 4, MaxLine: 256, RequestTimeout: 10 * time.Second}
	seed := []map[string]any{{"text": "canon powershot a40"}, {"text": "nikon coolpix 885"}}
	for _, tp := range newTopologies(t, opt, seed) {
		t.Run(tp.name, func(t *testing.T) {
			// Within-cap requests still work.
			var q struct {
				Candidates json.RawMessage `json:"candidates"`
			}
			if code := doJSON(t, "POST", tp.url+"/v1/query", map[string]any{"text": "canon powershot"}, &q); code != http.StatusOK {
				t.Fatalf("small query: code=%d", code)
			}

			// Oversized bodies: every JSON endpoint answers 413 in the
			// envelope, read and write paths alike.
			huge := strings.Repeat("x", int(opt.MaxBody)+1024)
			for _, ep := range []string{"/v1/query", "/v1/query/batch", "/v1/entities"} {
				code, eb, _ := doEnvelope(t, "POST", tp.url+ep, map[string]any{"text": huge})
				if code != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeTooLarge {
					t.Fatalf("%s oversized body: code=%d envelope=%+v", ep, code, eb)
				}
			}

			// Oversized batches: one query over the cap is a 400.
			over := make([]map[string]any, opt.MaxBatch+1)
			for i := range over {
				over[i] = map[string]any{"text": "x"}
			}
			code, eb, _ := doEnvelope(t, "POST", tp.url+"/v1/query/batch", map[string]any{"queries": over})
			if code != http.StatusBadRequest || !strings.Contains(eb.Error.Message, "cap") {
				t.Fatalf("oversized batch: code=%d envelope=%+v", code, eb)
			}
			within := over[:opt.MaxBatch]
			if code := doJSON(t, "POST", tp.url+"/v1/query/batch", map[string]any{"queries": within}, nil); code != http.StatusOK {
				t.Fatalf("full batch at the cap: code=%d", code)
			}

			// Oversized NDJSON line: the record before it still answers,
			// then a request_too_large error line, then the summary.
			feed := `{"text":"canon powershot"}` + "\n" +
				`{"text":"` + strings.Repeat("y", opt.MaxLine+64) + `"}` + "\n"
			lines, sum := doStream(t, tp.url+"/v1/resolve/stream", feed)
			if len(lines) != 2 {
				t.Fatalf("oversized line: got %d lines before summary, want 2: %+v", len(lines), lines)
			}
			if lines[0].Candidates == nil || lines[0].I != 0 {
				t.Fatalf("oversized line: first record did not resolve: %+v", lines[0])
			}
			if lines[1].Error == nil || lines[1].Error.Code != CodeTooLarge {
				t.Fatalf("oversized line: want %s error line, got %+v", CodeTooLarge, lines[1])
			}
			if sum.Records != 1 || sum.Results != 1 || sum.Errors != 1 {
				t.Fatalf("oversized line: summary %+v", sum)
			}
		})
	}
}

// TestResolveStreamMatchesBatch checks per-record byte identity between
// the NDJSON stream and /v1/query/batch on every topology, with and
// without a pushed-down predicate.
func TestResolveStreamMatchesBatch(t *testing.T) {
	var entities []map[string]any
	for i := 0; i < 40; i++ {
		entities = append(entities, map[string]any{
			"attrs": map[string]string{
				"text": fmt.Sprintf("canon powershot a%d model %d", i%11, i%7),
				"city": []string{"berlin", "paris", "tokyo"}[i%3],
			},
		})
	}
	queries := make([]map[string]any, 10)
	var feed strings.Builder
	for i := range queries {
		queries[i] = map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)}
		line, _ := json.Marshal(queries[i])
		feed.Write(line)
		feed.WriteByte('\n')
	}
	wheres := []string{"", `city = "berlin" score >= 0.01 top 3`}
	for _, tp := range newTopologies(t, Options{RequestTimeout: 10 * time.Second}, entities) {
		for _, where := range wheres {
			name := tp.name
			if where != "" {
				name += "/where"
			}
			t.Run(name, func(t *testing.T) {
				var batch struct {
					Results []struct {
						Candidates json.RawMessage `json:"candidates"`
						Truncated  bool            `json:"truncated"`
					} `json:"results"`
				}
				body := map[string]any{"queries": queries, "k": 4, "where": where}
				if code := doJSON(t, "POST", tp.url+"/v1/query/batch", body, &batch); code != http.StatusOK {
					t.Fatalf("batch: code=%d", code)
				}
				lines, sum := doStream(t, tp.url+"/v1/resolve/stream?k=4&where="+url.QueryEscape(where), feed.String())
				if sum.Records != len(queries) || sum.Results != len(queries) || sum.Errors != 0 {
					t.Fatalf("summary %+v for %d queries", sum, len(queries))
				}
				if len(lines) != len(batch.Results) {
					t.Fatalf("stream answered %d records, batch %d", len(lines), len(batch.Results))
				}
				for j, l := range lines {
					if l.I != j || l.Error != nil {
						t.Fatalf("record %d: unexpected line %+v", j, l)
					}
					if !bytes.Equal(l.Candidates, batch.Results[j].Candidates) {
						t.Fatalf("record %d: stream answered %s, batch answered %s", j, l.Candidates, batch.Results[j].Candidates)
					}
					if l.Truncated != batch.Results[j].Truncated {
						t.Fatalf("record %d: truncated diverged", j)
					}
				}
			})
		}
	}
}

// TestResolveStreamRecordErrors checks that one bad record costs only
// that record: the stream reports it in place and keeps resolving.
func TestResolveStreamRecordErrors(t *testing.T) {
	ts, res := newTestServer(t)
	res.InsertBatch([][]entity.Attribute{
		{{Name: "text", Value: "canon powershot a40"}},
	})
	feed := `{"text":"canon a1"}` + "\n" +
		"not json\n" +
		"\n" + // blank lines are skipped, not counted
		"{}\n" + // neither attrs nor text
		`{"text":"canon a2"}` + "\n"
	lines, sum := doStream(t, ts.URL+"/v1/resolve/stream", feed)
	if len(lines) != 4 {
		t.Fatalf("got %d lines before summary, want 4: %+v", len(lines), lines)
	}
	wantErr := map[int]bool{1: true, 2: true}
	for _, l := range lines {
		if wantErr[l.I] != (l.Error != nil) {
			t.Fatalf("record %d: error=%v, want error=%v", l.I, l.Error != nil, wantErr[l.I])
		}
		if l.Error != nil && l.Error.Code != CodeBadRequest {
			t.Fatalf("record %d: error code %q", l.I, l.Error.Code)
		}
	}
	if sum.Records != 4 || sum.Results != 2 || sum.Errors != 2 {
		t.Fatalf("summary %+v", sum)
	}

	// Bad URL parameters are refused up front with the JSON envelope,
	// before any streaming starts.
	for _, qs := range []string{"?k=x", "?eps=x", "?limit=-1", "?where=" + url.QueryEscape(`city =`)} {
		code, eb, _ := doEnvelope(t, "POST", ts.URL+"/v1/resolve/stream"+qs, nil)
		if code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
			t.Fatalf("%s: code=%d envelope=%+v", qs, code, eb)
		}
	}

	// explain rides the summary line.
	_, sum = doStream(t, ts.URL+"/v1/resolve/stream?where="+url.QueryEscape(`score >= 0.5 explain`), `{"text":"canon"}`)
	if sum.Plan == "" {
		t.Fatalf("explain stream: summary has no plan: %+v", sum)
	}
}

// TestProxyHeaderHygiene checks that the proxy strips hop-by-hop
// headers in both directions — the RFC 9110 §7.6.1 set and anything the
// Connection header names — while end-to-end headers pass through.
func TestProxyHeaderHygiene(t *testing.T) {
	var mu sync.Mutex
	var got http.Header
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/readyz" {
			fmt.Fprintln(w, "ready")
			return
		}
		mu.Lock()
		got = r.Header.Clone()
		mu.Unlock()
		h := w.Header()
		h.Set("Keep-Alive", "timeout=5")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("Upgrade", "h2c")
		h.Set("X-Backend", "kept")
		h.Set("Content-Type", "application/json")
		fmt.Fprintln(w, "{}")
	}))
	defer backend.Close()
	proxy, err := NewProxy([]string{backend.URL}, ProxyOptions{ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// /v1/stats and friends are the proxy's own endpoints; an entity get
	// goes through the forwarder.
	req := httptest.NewRequest(http.MethodGet, "/v1/entities/1", nil)
	req.Header.Set("Connection", "X-Hop, Keep-Alive")
	req.Header.Set("X-Hop", "secret")
	req.Header.Set("Keep-Alive", "timeout=5")
	req.Header.Set("Te", "trailers")
	req.Header.Set("Proxy-Connection", "keep-alive")
	req.Header.Set("X-End", "kept")
	rec := httptest.NewRecorder()
	proxy.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied request: code=%d body=%s", rec.Code, rec.Body)
	}

	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("backend never saw the request")
	}
	for _, h := range []string{"X-Hop", "Keep-Alive", "Te", "Proxy-Connection", "Connection"} {
		if v := got.Get(h); v != "" {
			t.Errorf("backend received hop-by-hop header %s: %q", h, v)
		}
	}
	if got.Get("X-End") != "kept" {
		t.Errorf("backend lost end-to-end header X-End: %q", got.Get("X-End"))
	}
	for _, h := range []string{"Keep-Alive", "Proxy-Authenticate", "Upgrade"} {
		if v := rec.Header().Get(h); v != "" {
			t.Errorf("client received hop-by-hop response header %s: %q", h, v)
		}
	}
	if rec.Header().Get("X-Backend") != "kept" {
		t.Errorf("client lost end-to-end response header X-Backend: %q", rec.Header().Get("X-Backend"))
	}
}

// TestStripHopByHop covers the full strip matrix on the pure function.
func TestStripHopByHop(t *testing.T) {
	h := http.Header{}
	h.Set("X-A", "1")
	h.Set("X-B", "2")
	h.Set("X-C", "3")
	for _, name := range hopHeaders {
		h.Set(name, "v")
	}
	h.Set("Connection", "x-a , x-b,") // names X-A and X-B hop-by-hop

	stripHopByHop(h)
	for _, name := range append([]string{"X-A", "X-B"}, hopHeaders...) {
		if v := h.Get(name); v != "" {
			t.Errorf("%s survived: %q", name, v)
		}
	}
	if h.Get("X-C") != "3" {
		t.Errorf("end-to-end X-C was stripped")
	}
}

// TestQueryWhereEndpoint exercises the DSL on /v1/query: predicate
// filtering before the cut, `top` overriding the serialization limit,
// `explain` returning the normalized plan (with the trace section
// implied), score floors, and parse failures as 400s.
func TestQueryWhereEndpoint(t *testing.T) {
	var entities []map[string]any
	for i := 0; i < 30; i++ {
		entities = append(entities, map[string]any{
			"attrs": map[string]string{
				"text": fmt.Sprintf("canon powershot a%d kit", i%5),
				"city": []string{"berlin", "paris"}[i%2],
			},
		})
	}
	tps := newTopologies(t, Options{RequestTimeout: 10 * time.Second}, entities)
	ts := tps[0] // the DSL path is topology-independent (proved above); assert semantics once

	type queryOut struct {
		Candidates []struct {
			ID    int64   `json:"id"`
			Score float64 `json:"score"`
		} `json:"candidates"`
		Truncated bool            `json:"truncated"`
		Plan      string          `json:"plan"`
		Trace     json.RawMessage `json:"trace"`
	}
	cityOf := func(id int64) string {
		var e struct {
			Attrs []struct {
				Name  string `json:"name"`
				Value string `json:"value"`
			} `json:"attrs"`
		}
		if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/entities/%d", ts.url, id), nil, &e); code != http.StatusOK {
			t.Fatalf("get %d: code=%d", id, code)
		}
		for _, a := range e.Attrs {
			if a.Name == "city" {
				return a.Value
			}
		}
		return ""
	}

	// Predicate filtering: every candidate satisfies the clause, and the
	// filter widened the search rather than post-filtering the top k
	// (with k=4 over two interleaved cities, a post-hoc cut would lose
	// matches; the paris entities are still found).
	var out queryOut
	if code := doJSON(t, "POST", ts.url+"/v1/query", map[string]any{
		"text": "canon powershot a1", "k": 4, "where": `city = "paris"`,
	}, &out); code != http.StatusOK {
		t.Fatalf("where query: code=%d", code)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("where query: no candidates")
	}
	for _, c := range out.Candidates {
		if cityOf(c.ID) != "paris" {
			t.Fatalf("candidate %d leaked through the predicate: city=%q", c.ID, cityOf(c.ID))
		}
	}

	// Score floor: every returned score respects it.
	if code := doJSON(t, "POST", ts.url+"/v1/query", map[string]any{
		"text": "canon powershot a1", "k": 10, "where": `score >= 0.5`,
	}, &out); code != http.StatusOK {
		t.Fatalf("score query: code=%d", code)
	}
	for _, c := range out.Candidates {
		if c.Score < 0.5 {
			t.Fatalf("candidate %d under the floor: %v", c.ID, c.Score)
		}
	}

	// top N overrides the JSON limit and marks truncation.
	if code := doJSON(t, "POST", ts.url+"/v1/query", map[string]any{
		"text": "canon powershot a1", "k": 10, "limit": 100, "where": `top 1`,
	}, &out); code != http.StatusOK {
		t.Fatalf("top query: code=%d", code)
	}
	if len(out.Candidates) != 1 || !out.Truncated {
		t.Fatalf("top 1: got %d candidates truncated=%v", len(out.Candidates), out.Truncated)
	}

	// explain returns the normalized plan and implies the trace section.
	if code := doJSON(t, "POST", ts.url+"/v1/query", map[string]any{
		"text": "canon powershot a1", "where": `city = "paris" or not city ^= "ber" explain`,
	}, &out); code != http.StatusOK {
		t.Fatalf("explain query: code=%d", code)
	}
	if out.Plan == "" || out.Trace == nil {
		t.Fatalf("explain: plan=%q trace=%s", out.Plan, out.Trace)
	}

	// Parse failures are client errors in the envelope, on both query
	// endpoints.
	for _, body := range []map[string]any{
		{"text": "x", "where": `city =`},
		{"queries": []map[string]any{{"text": "x"}}, "where": `top 0`},
	} {
		ep := "/v1/query"
		if body["queries"] != nil {
			ep = "/v1/query/batch"
		}
		code, eb, _ := doEnvelope(t, "POST", ts.url+ep, body)
		if code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
			t.Fatalf("%s bad where: code=%d envelope=%+v", ep, code, eb)
		}
	}
}

// bulkRow is the deterministic feed generator shared by the stream and
// its batch cross-check.
func bulkRow(i int) map[string]any {
	return map[string]any{"text": fmt.Sprintf("canon powershot a%d model %d zoom lens", i%57, i%23)}
}

// TestBulkStreamGate is the `make bulk` acceptance gate: a 100k-row
// NDJSON feed (generated on the fly through a pipe, never materialized)
// against a live index must stream to completion with bounded server
// heap growth, and a deterministic sample of its answers must be
// byte-identical to /v1/query/batch over the same queries.
func TestBulkStreamGate(t *testing.T) {
	rows := 100_000
	if testing.Short() {
		rows = 2_000
	}
	res := mustOpen(t, testConfig(), 1)
	var seed [][]entity.Attribute
	for i := 0; i < 2_000; i++ {
		seed = append(seed, []entity.Attribute{
			{Name: "text", Value: fmt.Sprintf("canon powershot a%d model %d kit", i%57, i%29)},
		})
	}
	res.InsertBatch(seed)
	ts := httptest.NewServer(mustServer(t, res, nil, Options{RequestTimeout: 10 * time.Minute}).Handler())
	defer ts.Close()

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		enc := json.NewEncoder(bw)
		for i := 0; i < rows; i++ {
			if err := enc.Encode(bulkRow(i)); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		bw.Flush()
		pw.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/resolve/stream?k=4", "application/x-ndjson", pr)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code=%d", resp.StatusCode)
	}

	const sampleEvery = 997
	sampled := map[int]streamLine{}
	var results int
	var sum *streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Bytes(), err)
		}
		switch {
		case l.Done:
			sum = &l
		case l.Error != nil:
			t.Fatalf("record %d failed: %+v", l.I, l.Error)
		default:
			if l.I != results {
				t.Fatalf("records out of order: got i=%d at position %d", l.I, results)
			}
			results++
			if l.I%sampleEvery == 0 {
				sampled[l.I] = l
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if sum == nil || sum.Records != rows || sum.Results != rows || sum.Errors != 0 || results != rows {
		t.Fatalf("summary %+v, saw %d results, want %d clean records", sum, results, rows)
	}

	// Bounded memory: O(batch), not O(feed). The bar is far above one
	// batch's working set and far below a buffered 100k-row feed.
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc && m1.HeapAlloc-m0.HeapAlloc > 64<<20 {
		t.Fatalf("heap grew %d bytes across the stream; the feed is being buffered", m1.HeapAlloc-m0.HeapAlloc)
	}

	// Byte-identity: replay the sampled rows through /v1/query/batch.
	var idx []int
	var queries []map[string]any
	for i := 0; i < rows; i += sampleEvery {
		idx = append(idx, i)
		queries = append(queries, bulkRow(i))
	}
	var batch struct {
		Results []struct {
			Candidates json.RawMessage `json:"candidates"`
		} `json:"results"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query/batch", map[string]any{"queries": queries, "k": 4}, &batch); code != http.StatusOK {
		t.Fatalf("batch replay: code=%d", code)
	}
	for j, i := range idx {
		if !bytes.Equal(sampled[i].Candidates, batch.Results[j].Candidates) {
			t.Fatalf("record %d: stream answered %s, batch answered %s", i, sampled[i].Candidates, batch.Results[j].Candidates)
		}
	}
}
