package main

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their regression bounds, per-layer metrics. BENCHMARK.json at the
// repository root states the same lists for the driver; a unit test
// holds the two in step.

// Workload names (the contract with BENCHMARK.json).
const (
	wKNNJPoint    = "knnj_point"
	wHNSWPoint    = "hnsw_point"
	wMatchDurable = "match_mixed_durable"
	wBatchFilter  = "batch_filter"
)

var workloadNames = []string{wKNNJPoint, wHNSWPoint, wMatchDurable, wBatchFilter}

// metricSpec declares one metric: its unit, which direction is better,
// and for end-to-end metrics the relative worsening that counts as a
// regression (per-layer metrics carry no bound).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics the driver holds to a bound. Every one is
// reported, non-zero, on every workload. The issue's rule for a bound is
// max(its listed value, 2.5 x the largest A/A spread measured), capped at
// the contract's 0.25, and a metric that needs more is demoted to
// per-layer. setup_s needs more too, but the contract requires it here
// and exempts its spread, so it keeps the cap.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pc", "ratio", "higher", 0.01},
	{"pq", "ratio", "higher", 0.02},
	{"rss_mb", "MiB", "lower", 0.20},
}

// timing is the other half of the issue's end-to-end table, demoted by
// its own rule: on the shared reference host the machine's speed drifts
// by 1.3 to 1.6 times over minutes, every time metric of an online
// workload follows it, and ten same-code runs spread 9 to 71 % where a
// bound may be at most 25 % (perf/README.md has the sets). Every run
// still measures and prints them over the whole timed phase, documents
// keep them, and -aa and -compare judge them against the runs' own
// spread; the driver sees them on the traced run's line, without a bound.
var timing = []metricSpec{
	{"throughput_ops_s", "ops/s", "higher", 0},
	{"read_p50_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"cpu_ms_per_op", "ms", "lower", 0},
}

// runMetrics is what every run measures whatever its mode, and what -aa
// and -compare look at.
var runMetrics = append(endToEnd[:len(endToEnd):len(endToEnd)], timing...)

// perLayer lists what the traced run reports: the demoted time metrics,
// then the attribution metrics grouped by the package (layer) they
// price. T = observed on the traced daemon from outside, D = direct
// timed call into the package (perf/layers).
var perLayer = append(timing[:len(timing):len(timing)], []metricSpec{
	// text (D)
	{"text.clean_us", "us", "lower", 0},
	{"text.tokens_c3g_us", "us", "lower", 0},
	{"text.tokens_per_text", "count", "lower", 0},
	// vector (D)
	{"vector.embed_warm_us", "us", "lower", 0},
	{"vector.embed_cold_us", "us", "lower", 0},
	// sparse (D)
	{"sparse.knn_query_us", "us", "lower", 0},
	{"sparse.knn_query_allocs", "count", "lower", 0},
	{"sparse.knn_query_bytes", "B", "lower", 0},
	{"sparse.candidates_per_query", "count", "lower", 0},
	{"sparse.range_query_us", "us", "lower", 0},
	{"sparse.add_us", "us", "lower", 0},
	{"sparse.freeze_us", "us", "lower", 0},
	// knn (D)
	{"knn.hnsw_add_us", "us", "lower", 0},
	{"knn.hnsw_search_us", "us", "lower", 0},
	{"knn.hnsw_search_allocs", "count", "lower", 0},
	{"knn.flat_search_us", "us", "lower", 0},
	{"knn.hnsw_recall_at_10", "ratio", "higher", 0},
	// online (T)
	{"online.encode_us", "us", "lower", 0},
	{"online.search_us", "us", "lower", 0},
	{"online.candidates_per_query", "count", "lower", 0},
	{"online.publish_freeze_us", "us", "lower", 0},
	{"online.publishes_per_write", "count", "lower", 0},
	{"online.compactions", "count", "lower", 0},
	{"online.gather_merge_us", "us", "lower", 0},
	{"online.pool_miss_share", "ratio", "lower", 0},
	// wal / store (T; append_sync D)
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.commit_batch_records", "count", "higher", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"store.checkpoint_ms", "ms", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"store.recovery_s", "s", "lower", 0},
	// segment (T)
	{"segment.segments_scanned_per_query", "count", "lower", 0},
	{"segment.flush_ms", "ms", "lower", 0},
	{"segment.live_segments", "count", "lower", 0},
	{"segment.merges", "count", "lower", 0},
	{"segment.disk_bytes_per_user_byte", "ratio", "lower", 0},
	// query (D)
	{"query.parse_us", "us", "lower", 0},
	{"query.match_us", "us", "lower", 0},
	// match (T + D)
	{"match.decide_us_per_query", "us", "lower", 0},
	{"match.comparisons_per_query", "count", "lower", 0},
	{"match.bipartite_us", "us", "lower", 0},
	{"match.greedy_us", "us", "lower", 0},
	{"match.scorer_jw_us", "us", "lower", 0},
	// serve (T)
	{"serve.handler_us", "us", "lower", 0},
	{"serve.net_us", "us", "lower", 0},
	{"serve.overhead_us", "us", "lower", 0},
	{"serve.req_bytes", "B", "lower", 0},
	{"serve.resp_bytes", "B", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.trace_overhead_share", "ratio", "lower", 0},
	{"serve.layer_sum_share", "ratio", "higher", 0},
	// core (D, Outcome.Timing on batch_filter): the paper's Fig. 7-9 phases
	{"core.pbw.build_s", "s", "lower", 0},
	{"core.pbw.clean_s", "s", "lower", 0},
	{"core.pbw.candidates", "count", "lower", 0},
	{"core.dbw.build_s", "s", "lower", 0},
	{"core.dbw.filter_s", "s", "lower", 0},
	{"core.dbw.clean_s", "s", "lower", 0},
	{"core.dbw.candidates", "count", "lower", 0},
	{"core.dknn.preprocess_s", "s", "lower", 0},
	{"core.dknn.index_s", "s", "lower", 0},
	{"core.dknn.query_s", "s", "lower", 0},
	{"core.dknn.candidates", "count", "lower", 0},
	{"core.epsjoin.preprocess_s", "s", "lower", 0},
	{"core.epsjoin.index_s", "s", "lower", 0},
	{"core.epsjoin.query_s", "s", "lower", 0},
	{"core.epsjoin.candidates", "count", "lower", 0},
	{"core.flat.preprocess_s", "s", "lower", 0},
	{"core.flat.index_s", "s", "lower", 0},
	{"core.flat.query_s", "s", "lower", 0},
	{"core.flat.candidates", "count", "lower", 0},
	// tails and open loop (T)
	{"read_p99_ms", "ms", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},
	{"delete_p50_ms", "ms", "lower", 0},
	{"openloop.read_p50_ms", "ms", "lower", 0},
	{"openloop.read_p99_ms", "ms", "lower", 0},
	{"openloop.late_p99_ms", "ms", "lower", 0},
	// proc, host, metrics
	{"proc.peak_rss_mb", "MiB", "lower", 0},
	{"proc.rss_after_setup_mb", "MiB", "lower", 0},
	{"proc.ctx_switches_per_op", "count", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"host.spin_ms", "ms", "lower", 0},
	{"host.memwalk_ms", "ms", "lower", 0},
	{"host.fsync_us", "us", "lower", 0},
	{"metrics.observe_ns", "ns", "lower", 0},
}...)

func specByName(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
