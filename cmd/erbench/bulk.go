package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/online"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// bulkExperiment drives the NDJSON bulk-resolve protocol end to end: it
// boots the real HTTP server over a populated index, generates the feed
// on the fly (never materialized — the client writes rows through a
// pipe as the server answers), and streams every row through POST
// /v1/resolve/stream. Reports ingest and stream wall time, rows/s, and
// the server-process heap — peak while streaming and settled after —
// relative to the pre-stream baseline, which is how the protocol's
// O(batch) memory claim is priced: the heap envelope must stay flat no
// matter how many rows flow through. A deterministic sample of the
// streamed answers is replayed through /v1/query/batch and compared
// byte for byte; any divergence fails the run.
func bulkExperiment(out io.Writer, entities, rows int) error {
	if entities < 1 {
		return fmt.Errorf("-bulk-entities must be >= 1, got %d", entities)
	}
	if rows < 1 {
		return fmt.Errorf("-bulk-rows must be >= 1, got %d", rows)
	}
	c3g, err := text.ParseModel("C3G")
	if err != nil {
		return err
	}
	cfg := online.Config{Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 4, Clean: true}

	words := []string{
		"canon", "nikon", "sony", "olympus", "panasonic", "powershot",
		"coolpix", "cybershot", "digital", "camera", "compact", "zoom",
		"lens", "black", "silver", "battery", "charger", "kit", "mp", "hd",
	}
	rowText := func(i int) string {
		w := func(j int) string { return words[(i*7+j*13)%len(words)] }
		return fmt.Sprintf("%s %s %s %d %s", w(0), w(1), w(2), i%97, w(3))
	}

	res := memResolver(cfg, 1)
	begin := time.Now()
	const batch = 1000
	for lo := 0; lo < entities; lo += batch {
		hi := min(lo+batch, entities)
		chunk := make([][]entity.Attribute, hi-lo)
		for i := range chunk {
			chunk[i] = []entity.Attribute{{Name: "text", Value: rowText(lo + i)}}
		}
		res.InsertBatch(chunk)
	}
	ingest := time.Since(begin)

	srv, err := serve.NewServer(res, nil, serve.Options{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()

	// Sample the live heap while the stream runs; the peak prices the
	// protocol's true working set, before any settling GC.
	var peak atomic.Uint64
	stop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if h := ms.HeapAlloc; h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		for i := 0; i < rows; i++ {
			line, _ := json.Marshal(map[string]string{"text": rowText(i * 31)})
			bw.Write(line)
			bw.WriteByte('\n')
		}
		bw.Flush()
		pw.Close()
	}()

	begin = time.Now()
	resp, err := http.Post(ts.URL+"/v1/resolve/stream?k=4", "application/x-ndjson", pr)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %s", resp.Status)
	}

	// Every sampleEvery-th row's answer is kept for the batch replay.
	const sampleEvery = 1000
	type line struct {
		I          int             `json:"i"`
		Candidates json.RawMessage `json:"candidates"`
		Error      *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
		Done    bool `json:"done"`
		Records int  `json:"records"`
		Results int  `json:"results"`
		Errors  int  `json:"errors"`
	}
	sampled := map[int]json.RawMessage{}
	var done *line
	results := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad response line %q: %w", sc.Bytes(), err)
		}
		switch {
		case l.Done:
			done = &l
		case l.Error != nil:
			return fmt.Errorf("row %d failed: %s: %s", l.I, l.Error.Code, l.Error.Message)
		default:
			results++
			if l.I%sampleEvery == 0 {
				sampled[l.I] = l.Candidates
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stream: %w", err)
	}
	wall := time.Since(begin)
	close(stop)
	<-sampleDone
	settled := heap()
	if done == nil || done.Records != rows || done.Results != rows || done.Errors != 0 || results != rows {
		return fmt.Errorf("stream summary %+v with %d result lines; want %d clean rows", done, results, rows)
	}

	// Replay the sample through /v1/query/batch in cap-sized chunks and
	// compare byte for byte.
	var idx []int
	for i := 0; i < rows; i += sampleEvery {
		idx = append(idx, i)
	}
	verified := 0
	for lo := 0; lo < len(idx); lo += serve.DefaultMaxBatch {
		hi := min(lo+serve.DefaultMaxBatch, len(idx))
		queries := make([]map[string]string, hi-lo)
		for j := range queries {
			queries[j] = map[string]string{"text": rowText(idx[lo+j] * 31)}
		}
		body, _ := json.Marshal(map[string]any{"queries": queries, "k": 4})
		bresp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("batch replay: %w", err)
		}
		var br struct {
			Results []struct {
				Candidates json.RawMessage `json:"candidates"`
			} `json:"results"`
		}
		err = json.NewDecoder(bresp.Body).Decode(&br)
		bresp.Body.Close()
		if err != nil || bresp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch replay: status %s err %v", bresp.Status, err)
		}
		for j, r := range br.Results {
			i := idx[lo+j]
			if !bytes.Equal(sampled[i], r.Candidates) {
				return fmt.Errorf("row %d diverged: stream %s, batch %s", i, sampled[i], r.Candidates)
			}
			verified++
		}
	}

	mb := func(d uint64) float64 { return float64(d) / (1 << 20) }
	delta := func(h uint64) float64 {
		if h <= base {
			return 0
		}
		return mb(h - base)
	}
	fmt.Fprintf(out, "bulk resolve stream: %d rows vs %d-entity index (k=4, batch unit %d)\n",
		rows, entities, serve.DefaultMaxBatch)
	fmt.Fprintf(out, "  ingest        %12v  (%d entities)\n", ingest.Round(time.Millisecond), entities)
	fmt.Fprintf(out, "  stream        %12v  (%.0f rows/s)\n", wall.Round(time.Millisecond), float64(rows)/wall.Seconds())
	fmt.Fprintf(out, "  heap baseline %9.1f MB  (index resident, before the stream)\n", mb(base))
	fmt.Fprintf(out, "  heap peak     %+9.1f MB  while streaming\n", delta(peak.Load()))
	fmt.Fprintf(out, "  heap settled  %+9.1f MB  after the stream + GC\n", delta(settled))
	fmt.Fprintf(out, "  verified      %9d sampled rows byte-identical to /v1/query/batch\n", verified)
	return nil
}
