package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/online"
	"erfilter/internal/repl"
	"erfilter/internal/retry"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// replExperiment measures the scale-out case for WAL-shipping read
// replicas: the same query workload is pushed through the routing proxy
// at 1, 2 and 4 replicas (the leader plus 0, 1 and 3 followers) and the
// read throughput compared. Followers bootstrap from a streamed
// snapshot and tail the leader's log exactly as production does — the
// catch-up column is that bootstrap's wall time — and after each run
// the steady-state byte lag is read back from the follower gauges.
// Every follower's answer to a probe query is compared byte-for-byte
// against the leader's; any divergence fails the run.
func replExperiment(out io.Writer, entities, queries, maxReplicas int) error {
	if entities < 1 {
		return fmt.Errorf("-repl-entities must be >= 1, got %d", entities)
	}
	if queries < 1 {
		return fmt.Errorf("-repl-queries must be >= 1, got %d", queries)
	}
	if maxReplicas < 1 {
		return fmt.Errorf("-repl-max must be >= 1, got %d", maxReplicas)
	}
	c3g, err := text.ParseModel("C3G")
	if err != nil {
		return err
	}
	cfg := online.Config{Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 10, Clean: true}

	words := []string{
		"canon", "nikon", "sony", "olympus", "panasonic", "powershot",
		"coolpix", "cybershot", "digital", "camera", "compact", "zoom",
		"lens", "black", "silver", "battery", "charger", "kit", "mp", "hd",
	}
	attrsFor := func(i int) []entity.Attribute {
		w := func(j int) string { return words[(i*7+j*13)%len(words)] }
		return []entity.Attribute{{Name: "text",
			Value: fmt.Sprintf("%s %s %s %d %s %s", w(0), w(1), w(2), i%97, w(3), w(4))}}
	}
	probeFor := func(i int) string {
		w := func(j int) string { return words[(i*11+j*3)%len(words)] }
		return fmt.Sprintf("%s %s %d %s", w(0), w(1), i%97, w(2))
	}

	newServer := func(node *repl.Node) (*httptest.Server, error) {
		s, err := serve.NewServer(nil, nil, serve.Options{
			Replication: node, RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		return httptest.NewServer(s.Handler()), nil
	}

	st, err := online.OpenStore("node", cfg, 1, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		return err
	}
	leader, err := repl.NewLeader(st, repl.Options{ID: "leader"})
	if err != nil {
		return err
	}
	defer leader.Close()
	lsrv, err := newServer(leader)
	if err != nil {
		return err
	}
	defer lsrv.Close()

	fmt.Fprintf(out, "erbench repl: ingesting %d entities into the leader\n", entities)
	const batch = 1000
	for lo := 0; lo < entities; lo += batch {
		hi := min(lo+batch, entities)
		chunk := make([][]entity.Attribute, hi-lo)
		for i := range chunk {
			chunk[i] = attrsFor(lo + i)
		}
		if _, err := leader.InsertBatch(chunk); err != nil {
			return err
		}
	}

	type follower struct {
		node *repl.Node
		srv  *httptest.Server
		tail *repl.Tailer
	}
	var followers []*follower
	defer func() {
		for _, f := range followers {
			f.tail.Close()
			f.srv.Close()
			f.node.Close()
		}
	}()
	addFollower := func(i int) (*follower, time.Duration, error) {
		fst, err := online.OpenStore("node", cfg, 1, online.StoreOptions{FS: faultfs.NewMem()})
		if err != nil {
			return nil, 0, err
		}
		node, err := repl.NewFollower(fst, repl.Options{ID: fmt.Sprintf("f%d", i)})
		if err != nil {
			return nil, 0, err
		}
		if err := node.SetUpstream(lsrv.URL); err != nil {
			return nil, 0, err
		}
		srv, err := newServer(node)
		if err != nil {
			return nil, 0, err
		}
		f := &follower{node: node, srv: srv}
		f.tail = repl.StartTailer(node, repl.TailerOptions{
			Wait:  500 * time.Millisecond,
			Retry: retry.Policy{Base: 10 * time.Millisecond, Cap: 250 * time.Millisecond},
		})
		begin := time.Now()
		deadline := begin.Add(2 * time.Minute)
		for node.LogPos() != leader.LogPos() {
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("follower %d failed to catch up within 2m", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
		followers = append(followers, f)
		return f, time.Since(begin), nil
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	query := func(base, probe string) ([]byte, time.Duration, error) {
		body, _ := json.Marshal(map[string]any{"text": probe, "k": 10})
		begin := time.Now()
		resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("query %s: status %d: %s", base, resp.StatusCode, data)
		}
		return data, time.Since(begin), nil
	}
	// candidatesOf strips the per-replica envelope fields (epoch headers
	// differ by design) down to the answer that must match byte-for-byte.
	candidatesOf := func(raw []byte) (string, error) {
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal(raw, &parsed); err != nil {
			return "", err
		}
		return string(parsed["candidates"]), nil
	}

	// Read scale-out only shows under concurrent load: keep enough
	// in-flight clients to saturate more than one replica even on small
	// machines (on a single-core host the replicas still share the CPU,
	// so the table reads as overhead, not speedup).
	workers := max(2*runtime.GOMAXPROCS(0), 8)
	fmt.Fprintf(out, "erbench repl: %d queries per run, %d client workers, K=%d\n\n", queries, workers, cfg.K)
	fmt.Fprintf(out, "%-9s %-10s %-10s %-12s %-10s\n", "replicas", "reads/s", "p50", "max-lag", "catch-up")

	var counts []int
	for c := 1; c <= maxReplicas; c *= 2 {
		counts = append(counts, c)
	}
	baseQPS, lastQPS := 0.0, 0.0
	for _, count := range counts {
		catchUp := time.Duration(0)
		for len(followers) < count-1 {
			_, d, err := addFollower(len(followers) + 1)
			if err != nil {
				return err
			}
			catchUp = max(catchUp, d)
		}
		urls := []string{lsrv.URL}
		for _, f := range followers {
			urls = append(urls, f.srv.URL)
		}
		proxy, err := serve.NewProxy(urls, serve.ProxyOptions{ProbeEvery: 100 * time.Millisecond})
		if err != nil {
			return err
		}
		psrv := httptest.NewServer(proxy.Handler())

		// Correctness before speed: every replica answers a sample of
		// probes exactly like the leader.
		for i := 0; i < 5; i++ {
			probe := probeFor(i * 37)
			raw, _, err := query(lsrv.URL, probe)
			if err != nil {
				return err
			}
			want, err := candidatesOf(raw)
			if err != nil {
				return err
			}
			for _, u := range urls[1:] {
				raw, _, err := query(u, probe)
				if err != nil {
					return err
				}
				got, err := candidatesOf(raw)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("replica %s diverges from the leader on %q", u, probe)
				}
			}
		}

		lats := make([]time.Duration, queries)
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		begin := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < queries; i += workers {
					_, d, err := query(psrv.URL, probeFor(i))
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					lats[i] = d
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(begin)
		psrv.Close()
		proxy.Close()
		if firstErr != nil {
			return firstErr
		}

		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50 := lats[len(lats)/2]
		qps := float64(queries) / elapsed.Seconds()
		if count == 1 {
			baseQPS = qps
		}
		lastQPS = qps
		var maxLag int64
		for _, f := range followers {
			if ns, ok := f.node.Stats().(repl.NodeStats); ok {
				maxLag = max(maxLag, ns.LagBytes)
			}
		}
		cu := "-"
		if catchUp > 0 {
			cu = catchUp.Round(time.Millisecond).String()
		}
		fmt.Fprintf(out, "%-9d %-10.0f %-10s %-12d %-10s\n",
			count, qps, p50.Round(time.Microsecond), maxLag, cu)
	}
	if len(counts) > 1 && baseQPS > 0 {
		fmt.Fprintf(out, "\nscale-out: %.2fx read throughput at %d replicas vs 1\n",
			lastQPS/baseQPS, counts[len(counts)-1])
	}
	return nil
}
