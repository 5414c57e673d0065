package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP erserve_http_request_duration_seconds End-to-end request latency.
# TYPE erserve_http_request_duration_seconds histogram
erserve_http_request_duration_seconds_bucket{endpoint="query",le="0.001"} 3
erserve_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 10
erserve_http_request_duration_seconds_sum{endpoint="query"} 0.03
erserve_http_request_duration_seconds_count{endpoint="query"} 10
erserve_http_request_duration_seconds_sum{endpoint="insert"} 0.5
erserve_http_request_duration_seconds_count{endpoint="insert"} 5
# TYPE wal_fsyncs_total counter
wal_fsyncs_total{shard="0"} 4
wal_fsyncs_total{shard="1"} 6
# TYPE wal_fsync_duration_seconds histogram
wal_fsync_duration_seconds_sum{shard="0"} 0.004
wal_fsync_duration_seconds_count{shard="0"} 4
wal_fsync_duration_seconds_sum{shard="1"} 0.006
wal_fsync_duration_seconds_count{shard="1"} 6
online_entities 6000
erserve_uptime_seconds 9.282583995
`

const scrapeAfter = `erserve_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 30
erserve_http_request_duration_seconds_sum{endpoint="query"} 0.07
erserve_http_request_duration_seconds_count{endpoint="query"} 30
erserve_http_request_duration_seconds_sum{endpoint="insert"} 0.5
erserve_http_request_duration_seconds_count{endpoint="insert"} 5
wal_fsyncs_total{shard="0"} 14
wal_fsyncs_total{shard="1"} 16
wal_fsync_duration_seconds_sum{shard="0"} 0.009
wal_fsync_duration_seconds_count{shard="0"} 14
wal_fsync_duration_seconds_sum{shard="1"} 0.021
wal_fsync_duration_seconds_count{shard="1"} 16
online_entities 6001
store_checkpoints_total 2
`

func TestScrapeDelta(t *testing.T) {
	a, err := parseScrape(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseScrape(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := a[`erserve_http_request_duration_seconds_bucket{endpoint="query"}`]; kept {
		t.Error("histogram buckets must be dropped")
	}
	if got := a["wal_fsyncs_total"]; got != 10 {
		t.Errorf("per-shard counter summed to %v, want 10", got)
	}
	d := b.sub(a)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("fsyncs", d["wal_fsyncs_total"], 20)
	near("query count", d[`erserve_http_request_duration_seconds_count{endpoint="query"}`], 20)
	// Histogram mean over the delta, from _sum and _count: endpoint label
	// kept apart, shard label summed.
	near("query handler mean", d.histMean(`erserve_http_request_duration_seconds{endpoint="query"}`), 0.04/20)
	near("insert handler mean (no observations)", d.histMean(`erserve_http_request_duration_seconds{endpoint="insert"}`), 0)
	near("fsync mean over both shards", d.histMean("wal_fsync_duration_seconds"), 0.020/20)
	near("series new in the later scrape", d["store_checkpoints_total"], 2)
	near("gauge delta", d["online_entities"], 1)
}

func TestScrapeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", "name{a=\"b\" 3", "name notanumber"} {
		if _, err := parseScrape(bad); err == nil {
			t.Errorf("parseScrape(%q) accepted", bad)
		}
	}
}

func TestLabelValue(t *testing.T) {
	if v, ok := labelValue(`endpoint="query",le="0.5"`, "le"); !ok || v != "0.5" {
		t.Errorf("le = %q, %v", v, ok)
	}
	if _, ok := labelValue(`shard="1"`, "endpoint"); ok {
		t.Error("found a label that is not there")
	}
}

func TestMemStatsTail(t *testing.T) {
	m := memStats("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 4021232\n# TotalAlloc = 90210000\n# Mallocs = 123456\n# NumGC = 17\n# DebugGC = false\n")
	if m["TotalAlloc"] != 90210000 || m["Mallocs"] != 123456 || m["NumGC"] != 17 {
		t.Errorf("memStats = %v", m)
	}
}
