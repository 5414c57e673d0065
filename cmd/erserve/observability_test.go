package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"erfilter/internal/metrics"
)

// scrapeDaemon boots the real daemon with o, drives traffic through fn,
// scrapes /v1/metrics and returns the parsed samples. The daemon is torn
// down with a SIGTERM before returning.
func scrapeDaemon(t *testing.T, o options, traffic func(base string)) []metrics.Sample {
	t.Helper()
	addrc := make(chan string, 1)
	o.ready = func(a string) { addrc <- a }
	done := make(chan error, 1)
	go func() { done <- run(o) }()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	}
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}()

	traffic(base)

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("exposition Content-Type = %q", ct)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// shard0 labels the per-shard series of a one-shard daemon: they carry
// the shard label at every shard count.
var shard0 = map[string]string{"shard": "0"}

func mustHave(t *testing.T, samples []metrics.Sample, name string, labels map[string]string, min float64) {
	t.Helper()
	v, ok := metrics.Find(samples, name, labels)
	if !ok {
		t.Fatalf("scrape is missing %s%v", name, labels)
	}
	if v < min {
		t.Fatalf("%s%v = %v, want >= %v", name, labels, v, min)
	}
}

// TestMetricsScrapeEndToEnd runs the real daemon (durable mode), drives
// traffic through it, scrapes GET /v1/metrics and validates the
// exposition parses and carries the series the dashboards depend on:
// endpoint latency histograms, WAL fsync/group-commit distributions and
// the resolver's epoch counters. CI runs exactly this test against every
// change as the /metrics contract gate.
func TestMetricsScrapeEndToEnd(t *testing.T) {
	o := options{
		addr: "127.0.0.1:0", method: "knnj", schema: "agnostic", model: "C3G",
		clean: true, k: 3, threshold: 0.4, shards: 1,
		walDir: filepath.Join(t.TempDir(), "store"), checkpointEvery: 64,
		writeQueue: 8, requestTimeout: 10 * time.Second,
	}
	samples := scrapeDaemon(t, o, func(base string) {
		// Traffic: inserts (WAL fsyncs, epoch publishes), queries (latency
		// histograms), one guaranteed error (a 404 GET).
		for i := 0; i < 5; i++ {
			body, _ := json.Marshal(map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)})
			resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("insert %d: %v %v", i, err, resp)
			}
			resp.Body.Close()
		}
		body, _ := json.Marshal(map[string]any{"text": "canon powershot"})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %v %v", err, resp)
		}
		resp.Body.Close()
		if resp, err = http.Get(base + "/v1/entities/999999"); err != nil || resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing get: %v %v", err, resp)
		}
		resp.Body.Close()
	})

	mustHave(t, samples, "erserve_http_request_duration_seconds_count", map[string]string{"endpoint": "insert"}, 5)
	mustHave(t, samples, "erserve_http_request_duration_seconds_count", map[string]string{"endpoint": "query"}, 1)
	mustHave(t, samples, "erserve_http_request_errors_total", map[string]string{"endpoint": "get"}, 1)
	mustHave(t, samples, "wal_fsync_duration_seconds_count", shard0, 1)
	mustHave(t, samples, "wal_commit_batch_records_count", shard0, 1)
	mustHave(t, samples, "wal_appended_records_total", shard0, 5)
	mustHave(t, samples, "online_epoch_publishes_total", nil, 1)
	mustHave(t, samples, "online_query_duration_seconds_count", map[string]string{"method": "knnj", "shard": "0"}, 1)
	mustHave(t, samples, "online_entities", nil, 5)
	mustHave(t, samples, "online_embed_table_words", nil, 0) // a sparse daemon builds no embedder
	mustHave(t, samples, "store_degraded", nil, 0)
	mustHave(t, samples, "erserve_uptime_seconds", nil, 0)

	// The insert latency histogram has a usable shape: sum > 0 and at
	// least one finite bucket below +Inf.
	sum, ok := metrics.Find(samples, "erserve_http_request_duration_seconds_sum", map[string]string{"endpoint": "insert"})
	if !ok || sum <= 0 {
		t.Fatalf("insert latency sum = %v ok=%v", sum, ok)
	}
}

// TestMetricsScrapeEndToEndMatch boots the daemon with -match -dirty
// over an ε-join config, drives duplicate inserts and a /v1/match call,
// and asserts one scrape carries the decision telemetry and the
// dirty-mode cluster gauges next to the resolver series — the match
// half of the /metrics contract.
func TestMetricsScrapeEndToEndMatch(t *testing.T) {
	o := options{
		addr: "127.0.0.1:0", method: "epsjoin", schema: "agnostic", model: "C3G",
		clean: true, k: 3, threshold: 0.3, shards: 1, storage: "memory",
		matchStage: true, matchAssign: "greedy", matchScorer: "jaro-winkler", matchT: 0.9,
		dirty:      true,
		writeQueue: 8, requestTimeout: 10 * time.Second,
		maxBody: 1 << 20, maxBatch: 64, maxLine: 1 << 16,
	}
	samples := scrapeDaemon(t, o, func(base string) {
		// Two exact duplicates and one distinct entity: the second insert
		// must union with the first, populating the cluster gauges.
		for _, text := range []string{
			"canon powershot a40 zoom digital camera",
			"canon powershot a40 zoom digital camera",
			"nikon coolpix 4300 silver",
		} {
			body, _ := json.Marshal(map[string]any{"text": text})
			resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("insert: %v %v", err, resp)
			}
			resp.Body.Close()
		}
		body, _ := json.Marshal(map[string]any{"queries": []map[string]any{
			{"text": "canon powershot a40 zoom digital camera"},
		}})
		resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("match: %v %v", err, resp)
		}
		resp.Body.Close()
	})

	mustHave(t, samples, "match_decide_duration_seconds_count", nil, 1)
	mustHave(t, samples, "match_batches_total", nil, 1)
	mustHave(t, samples, "match_candidate_pairs_total", nil, 1)
	mustHave(t, samples, "match_comparisons_total", nil, 1)
	mustHave(t, samples, "match_decisions_total", nil, 1)
	mustHave(t, samples, "match_clusters", nil, 1)
	mustHave(t, samples, "match_clustered_entities", nil, 2)
	mustHave(t, samples, "match_cluster_max_size", nil, 2)
	mustHave(t, samples, "online_entities", nil, 3)
	mustHave(t, samples, "erserve_http_request_duration_seconds_count", map[string]string{"endpoint": "match"}, 1)
}

// TestMetricsScrapeEndToEndDiskTier is the -storage disk /metrics
// contract: a durable daemon with a tiny memtable cap flushes several
// segments under real traffic, and one scrape carries the tier's
// gauges (live segments, disk bytes, tombstones), the flush/merge
// counters and duration histograms, and the per-query segments-scanned
// counter next to the WAL and endpoint series.
func TestMetricsScrapeEndToEndDiskTier(t *testing.T) {
	o := options{
		addr: "127.0.0.1:0", method: "knnj", schema: "agnostic", model: "C3G",
		clean: true, k: 3, threshold: 0.4, shards: 1,
		storage: "disk", memtableCap: 4, mergeFanin: 2,
		walDir: filepath.Join(t.TempDir(), "store"), checkpointEvery: 64,
		writeQueue: 8, requestTimeout: 10 * time.Second,
	}
	samples := scrapeDaemon(t, o, func(base string) {
		// 12 inserts at cap 4: every fourth insert checkpoints the WAL
		// into a fresh segment. Then delete a flushed entity (a tier
		// tombstone) and query (scanning the live segments).
		for i := 0; i < 12; i++ {
			body, _ := json.Marshal(map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)})
			resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("insert %d: %v %v", i, err, resp)
			}
			resp.Body.Close()
		}
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/entities/1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: %v %v", err, resp)
		}
		resp.Body.Close()
		body, _ := json.Marshal(map[string]any{"text": "canon powershot"})
		if resp, err = http.Post(base+"/v1/query", "application/json", bytes.NewReader(body)); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %v %v", err, resp)
		}
		resp.Body.Close()
	})

	mustHave(t, samples, "segment_live_segments", shard0, 1)
	mustHave(t, samples, "segment_disk_bytes", shard0, 1)
	mustHave(t, samples, "segment_flushes_total", shard0, 2)
	mustHave(t, samples, "segment_flush_duration_seconds_count", shard0, 2)
	mustHave(t, samples, "segment_query_segments_scanned_total", shard0, 1)
	// Merge series must be present in the exposition even when the
	// background compactor has not fired by scrape time.
	mustHave(t, samples, "segment_merges_total", shard0, 0)
	mustHave(t, samples, "segment_merge_failures_total", shard0, 0)
	mustHave(t, samples, "segment_merge_duration_seconds_count", shard0, 0)
	mustHave(t, samples, "segment_tombstones", shard0, 0)
	mustHave(t, samples, "online_entities", nil, 11)
	mustHave(t, samples, "wal_appended_records_total", shard0, 13)
	mustHave(t, samples, "store_checkpoints_total", nil, 2)
	mustHave(t, samples, "store_degraded", nil, 0)
}

// TestMetricsScrapeEndToEndSharded is the sharded-mode /metrics
// contract: per-shard entity gauges and query histograms, shard-labeled
// WAL series, the gather-merge histogram and the size-skew gauge all
// appear in one exposition.
func TestMetricsScrapeEndToEndSharded(t *testing.T) {
	o := options{
		addr: "127.0.0.1:0", method: "knnj", schema: "agnostic", model: "C3G",
		clean: true, k: 3, threshold: 0.4, shards: 2,
		walDir: filepath.Join(t.TempDir(), "store"), checkpointEvery: 64,
		writeQueue: 8, requestTimeout: 10 * time.Second,
	}
	samples := scrapeDaemon(t, o, func(base string) {
		ents := make([]map[string]any, 16)
		for i := range ents {
			ents[i] = map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)}
		}
		body, _ := json.Marshal(map[string]any{"entities": ents})
		resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %v %v", err, resp)
		}
		resp.Body.Close()
		qs, _ := json.Marshal(map[string]any{"queries": []map[string]any{
			{"text": "canon powershot a3"}, {"text": "canon powershot a7"},
		}})
		if resp, err = http.Post(base+"/v1/query/batch", "application/json", bytes.NewReader(qs)); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch query: %v %v", err, resp)
		}
		resp.Body.Close()
	})

	mustHave(t, samples, "online_shards", nil, 2)
	mustHave(t, samples, "online_entities", nil, 16)
	mustHave(t, samples, "online_shard_size_skew", nil, 1)
	mustHave(t, samples, "online_shard_entities", map[string]string{"shard": "0"}, 1)
	mustHave(t, samples, "online_shard_entities", map[string]string{"shard": "1"}, 1)
	mustHave(t, samples, "online_shard_query_duration_seconds_count", map[string]string{"shard": "0"}, 1)
	mustHave(t, samples, "online_gather_merge_duration_seconds_count", nil, 1)
	mustHave(t, samples, "wal_fsync_duration_seconds_count", map[string]string{"shard": "0"}, 1)
	mustHave(t, samples, "wal_fsync_duration_seconds_count", map[string]string{"shard": "1"}, 1)
	mustHave(t, samples, "store_checkpoint_duration_seconds_count", map[string]string{"shard": "0"}, 0)
	mustHave(t, samples, "store_checkpoints_total", nil, 0)
	mustHave(t, samples, "store_degraded", nil, 0)
	mustHave(t, samples, "erserve_http_request_duration_seconds_count", map[string]string{"endpoint": "query_batch"}, 1)
}

// TestMetricsScrapeEndToEndDense is the dense half of the contract: an
// HNSW daemon over two shards exports one unlabelled
// online_embed_table_words — the vocabulary its inserts indexed, held
// once for both shards — which queries, typos included, do not move, next
// to the per-shard embedder-pool counters. A sparse daemon exports the
// same series at 0 (TestMetricsScrapeEndToEnd).
func TestMetricsScrapeEndToEndDense(t *testing.T) {
	o := baseOptions()
	o.addr, o.method, o.knnIndex, o.shards = "127.0.0.1:0", "flat", "hnsw", 2
	o.clean = false // the table's words are then the texts' own
	o.writeQueue, o.requestTimeout = 8, 10*time.Second
	samples := scrapeDaemon(t, o, func(base string) {
		ents := make([]map[string]any, 16)
		for i := range ents {
			ents[i] = map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)}
		}
		body, _ := json.Marshal(map[string]any{"entities": ents})
		resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %v %v", err, resp)
		}
		resp.Body.Close()
		for i := 0; i < 20; i++ {
			body, _ := json.Marshal(map[string]any{"text": fmt.Sprintf("cannon powershott typo%d", i)})
			if resp, err = http.Post(base+"/v1/query", "application/json", bytes.NewReader(body)); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: %v %v", i, err, resp)
			}
			resp.Body.Close()
		}
	})
	// canon, powershot, a0 .. a15 — not doubled by the second shard, not
	// grown by the 22 query-only words.
	if v, ok := metrics.Find(samples, "online_embed_table_words", nil); !ok || v != 18 {
		t.Fatalf("online_embed_table_words = %v (present %v), want 18", v, ok)
	}
	mustHave(t, samples, "online_embedder_pool_gets_total", map[string]string{"shard": "0"}, 20)
	mustHave(t, samples, "online_embedder_pool_gets_total", map[string]string{"shard": "1"}, 20)
	mustHave(t, samples, "online_embedder_pool_misses_total", map[string]string{"shard": "0"}, 1)
	mustHave(t, samples, "online_entities", nil, 16)
}

// TestMetricsScrapeEndToEndSeriesSet pins the sharded-metrics hole shut:
// -shards is a deployment number, not a type, so the set of exported
// series names must be identical at -shards 1 and -shards 2 in every
// storage and durability mode — a dashboard built against one topology
// reads the other.
func TestMetricsScrapeEndToEndSeriesSet(t *testing.T) {
	modes := map[string]func(o *options, dir string){
		"memory": func(o *options, dir string) {},
		"disk": func(o *options, dir string) {
			o.storage, o.segmentDir, o.memtableCap, o.mergeFanin = "disk", dir, 4, 2
		},
		"wal": func(o *options, dir string) { o.walDir = dir },
		"wal+disk": func(o *options, dir string) {
			o.walDir, o.storage, o.memtableCap, o.mergeFanin = dir, "disk", 4, 2
		},
	}
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			names := func(shards int) map[string]bool {
				o := options{
					addr: "127.0.0.1:0", method: "knnj", schema: "agnostic", model: "C3G",
					clean: true, k: 3, threshold: 0.4, shards: shards, checkpointEvery: 64,
					writeQueue: 8, requestTimeout: 10 * time.Second,
				}
				mode(&o, filepath.Join(t.TempDir(), "data"))
				samples := scrapeDaemon(t, o, func(base string) {
					for i := 0; i < 12; i++ {
						body, _ := json.Marshal(map[string]any{"text": fmt.Sprintf("canon powershot a%d", i)})
						resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Fatalf("insert %d: %v %v", i, err, resp)
						}
						resp.Body.Close()
					}
					body, _ := json.Marshal(map[string]any{"text": "canon powershot"})
					resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("query: %v %v", err, resp)
					}
					resp.Body.Close()
				})
				set := map[string]bool{}
				for _, sm := range samples {
					set[sm.Name] = true
				}
				return set
			}
			one, two := names(1), names(2)
			for n := range one {
				if !two[n] {
					t.Errorf("series %s is exported at -shards 1 but not at -shards 2", n)
				}
			}
			for n := range two {
				if !one[n] {
					t.Errorf("series %s is exported at -shards 2 but not at -shards 1", n)
				}
			}
			for _, n := range []string{"online_publish_freeze_duration_seconds_count", "online_scratch_pool_gets_total"} {
				if !two[n] {
					t.Errorf("-shards 2 exports no %s", n)
				}
			}
			if strings.Contains(name, "disk") && !two["segment_flushes_total"] {
				t.Error("-shards 2 exports no segment_flushes_total")
			}
		})
	}
}
