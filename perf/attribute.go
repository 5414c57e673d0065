package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The traced run of an online workload: where the time of a request
// goes. Everything is observed from outside the daemon — client spans,
// the "trace" sections it answers with, /v1/metrics and /v1/stats deltas,
// /proc, the store directory — plus the direct per-package measurements
// of perf/layers.

// tracedPhases is the timed part of a traced run: 70 % closed loop with
// client spans around every call and "trace": true on every second read,
// then 30 % open loop. Counters are read off the daemon before and after
// the closed loop, never during it.
func (r *onlineRun) tracedPhases(seq *sequence, dur time.Duration, seed int64) error {
	part := func(share float64) time.Duration { return time.Duration(float64(dur) * share) }
	m0, err := r.scrape()
	if err != nil {
		return err
	}
	mem0, err := r.memStats()
	if err != nil {
		return err
	}
	segs0 := r.segFilesCreated()
	ph := r.closedPhase(seq, part(0.7), true)
	m1, err := r.scrape()
	if err != nil {
		return err
	}
	mem1, err := r.memStats()
	if err != nil {
		return err
	}
	r.layerMetrics(ph, m1.sub(m0), mem0, mem1)
	if r.w.durable {
		r.storeMetrics(ph, m1.sub(m0), m1, r.segFilesCreated()-segs0)
	}
	if r.w.group > 1 {
		r.probeBatch()
	}
	r.openLoop(part(0.3), float64(len(r.lat.read)+len(r.lat.readTraced))/ph.wall, seed)
	for name, v := range directLayers(r.e.tmp) {
		if _, ok := r.rep.Metrics[name]; !ok { // hnsw_point's recall is the daemon's own, set above
			r.rep.set(name, v.V, v.N)
		}
	}
	hostMetrics(r.rep)
	return nil
}

func hostMetrics(rep *report) {
	rep.set("host.spin_ms", rep.Host.SpinMS, 1)
	rep.set("host.memwalk_ms", rep.Host.MemwalkMS, 1)
	rep.set("host.fsync_us", rep.Host.FsyncUS, 24)
}

func (r *onlineRun) scrape() (scrape, error) {
	rp := r.cl.do("GET", "/v1/metrics", nil)
	if !rp.ok() {
		return nil, fmt.Errorf("GET /v1/metrics: status %d: %v", rp.status, rp.err)
	}
	return parseScrape(string(rp.body))
}

// memStats reads the daemon's runtime.MemStats through -pprof.
func (r *onlineRun) memStats() (map[string]float64, error) {
	rp := r.cl.do("GET", "/debug/pprof/heap?debug=1", nil)
	if !rp.ok() {
		return nil, fmt.Errorf("GET /debug/pprof/heap: status %d: %v", rp.status, rp.err)
	}
	return memStats(string(rp.body)), nil
}

// layerMetrics attributes the traced closed loop; d is the /v1/metrics
// delta over it.
func (r *onlineRun) layerMetrics(ph phase, d scrape, mem0, mem1 map[string]float64) {
	rep := r.rep
	untraced, traced := summarize(r.lat.read), summarize(r.lat.readTraced)
	all := summarize(append(append([]float64(nil), r.lat.read...), r.lat.readTraced...))
	wr, del := summarize(r.lat.write), summarize(r.lat.del)
	writes := float64(wr.N + del.N)
	ops := float64(ph.ops)

	r.phaseMetrics(ph) // the demoted time metrics are on the traced run's line
	rep.set("read_p99_ms", all.Tail, all.N)
	rep.note("read_p99_ms", fmt.Sprintf("p%g: the highest percentile with 10 samples beyond it", all.TailP))
	rep.set("write_p99_ms", wr.Tail, wr.N)
	rep.note("write_p99_ms", fmt.Sprintf("p%g: the highest percentile with 10 samples beyond it", wr.TailP))
	rep.set("delete_p50_ms", del.P50, del.N)

	// serve: the request-duration histogram is the daemon's own clock
	// around the whole handler; what the client waited beyond it is the
	// loopback network and two process wake-ups.
	endpoint := "query"
	if r.w.group > 1 {
		endpoint = "match"
	}
	handlerUS := d.histMean(`erserve_http_request_duration_seconds{endpoint="`+endpoint+`"}`) * 1e6
	rep.set("serve.handler_us", handlerUS, all.N)
	rep.set("serve.net_us", all.Mean*1e3-handlerUS, all.N)
	rep.set("serve.req_bytes", float64(r.readReqBytes)/float64(all.N), all.N)
	rep.set("serve.resp_bytes", float64(r.readRespLen)/float64(all.N), all.N)
	errs := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, "erserve_http_request_errors_total") {
			errs += v
		}
	}
	rep.set("serve.errors", errs, 0)
	rep.set("serve.trace_overhead_share", (traced.P50-untraced.P50)/untraced.P50, traced.N)
	// net + overhead + encode + search (+ decide) is by construction the
	// mean round trip; the share says how much of the median request
	// that mean explains — above 1 when stalls (checkpoints, GC) fatten
	// the mean, and a finding when below 0.9.
	rep.set("serve.layer_sum_share", all.Mean/untraced.P50, all.N)

	// online: the daemon's "trace" sections (point workloads; probeBatch
	// fills them in for /v1/match, which answers none)
	encUS, searchUS := 0.0, 0.0
	if q := float64(r.tracedQueries); q > 0 {
		encUS, searchUS = r.encUS/q, r.searchUS/q
		rep.set("online.encode_us", encUS, r.tracedQueries)
		rep.set("online.search_us", searchUS, r.tracedQueries)
		rep.set("online.candidates_per_query", r.cands/q, r.tracedQueries)
	}
	rep.set("serve.overhead_us", handlerUS-encUS-searchUS, all.N)
	rep.set("online.publish_freeze_us", d.histMean("online_publish_freeze_duration_seconds")*1e6, int(d["online_publish_freeze_duration_seconds_count"]))
	rep.set("online.publishes_per_write", d["online_epoch_publishes_total"]/max(1, writes), int(writes))
	rep.set("online.compactions", d["online_compactions_total"], 0)
	rep.set("online.gather_merge_us", d.histMean("online_gather_merge_duration_seconds")*1e6, int(d["online_gather_merge_duration_seconds_count"]))
	if gets := d["online_scratch_pool_gets_total"] + d["online_embedder_pool_gets_total"]; gets > 0 {
		rep.set("online.pool_miss_share", (d["online_scratch_pool_misses_total"]+d["online_embedder_pool_misses_total"])/gets, int(gets))
	}
	if batches := d["match_batches_total"]; batches > 0 {
		// Whole-batch time for now: candidates + scoring + assignment.
		rep.set("match.decide_us_per_query", d.histMean("match_decide_duration_seconds")*1e6/float64(r.w.group), int(batches))
		rep.set("match.comparisons_per_query", d["match_comparisons_total"]/(batches*float64(r.w.group)), int(batches))
	}

	// proc: the daemon's allocation counters, read from outside
	rep.set("proc.ctx_switches_per_op", ph.ctx/ops, ph.ops)
	rep.set("proc.allocs_per_op", (mem1["Mallocs"]-mem0["Mallocs"])/ops, ph.ops)
	rep.set("proc.alloc_bytes_per_op", (mem1["TotalAlloc"]-mem0["TotalAlloc"])/ops, ph.ops)
	rep.set("proc.gc_cycles", mem1["NumGC"]-mem0["NumGC"], 0)

	fmt.Printf("traced closed loop: read p50 %.4f ms untraced (n=%d), %.4f ms traced (n=%d)\n",
		untraced.P50, untraced.N, traced.P50, traced.N)
}

// storeMetrics reads the durable store: WAL, checkpoints, segment tier.
// end is the scrape after the phase, created the number of segment files
// the store made during it.
func (r *onlineRun) storeMetrics(ph phase, d, end scrape, created float64) {
	rep := r.rep
	writes := float64(len(r.lat.write) + len(r.lat.del))
	rep.set("wal.fsync_us", d.histMean("wal_fsync_duration_seconds")*1e6, int(d["wal_fsync_duration_seconds_count"]))
	rep.set("wal.fsyncs_per_write", d["wal_fsyncs_total"]/max(1, writes), int(writes))
	rep.set("wal.commit_batch_records", d.histMean("wal_commit_batch_records"), int(d["wal_commit_batch_records_count"]))
	rep.set("wal.bytes_per_user_byte", ph.walBytes/max(1, float64(r.userBytesWritten)), r.userBytesWritten)
	rep.set("store.checkpoints", d["store_checkpoints_total"], 0)
	rep.set("store.checkpoint_ms", d.histMean("store_checkpoint_duration_seconds")*1e3, int(d["store_checkpoint_duration_seconds_count"]))

	var st struct {
		Resolver struct {
			Segments  float64 `json:"segments"`
			DiskBytes float64 `json:"disk_bytes"`
			PerShard  []struct {
				Segments  float64 `json:"segments"`
				DiskBytes float64 `json:"disk_bytes"`
			} `json:"per_shard"`
		} `json:"resolver"`
	}
	if err := r.cl.getJSON("/v1/stats", &st); err != nil {
		rep.failCheck("GET /v1/stats: %v", err)
		return
	}
	segs, disk := st.Resolver.Segments, st.Resolver.DiskBytes
	for _, s := range st.Resolver.PerShard {
		segs += s.Segments
		disk += s.DiskBytes
	}
	resident := 0
	for _, p := range r.c.e1 {
		resident += userBytes(p)
	}
	for range r.fifo {
		resident += r.userBytesWritten / max(1, len(r.lat.write)) // mean inserted entity
	}
	rep.set("segment.live_segments", segs, 0)
	rep.set("segment.disk_bytes_per_user_byte", disk/float64(resident), resident)
	if _, exported := end["segment_flushes_total"]; exported {
		rep.set("segment.merges", d["segment_merges_total"], 0)
		rep.set("segment.flush_ms", d.histMean("segment_flush_duration_seconds")*1e3, int(d["segment_flush_duration_seconds_count"]))
		rep.set("segment.segments_scanned_per_query", d["segment_query_segments_scanned_total"]/max(1, float64(ph.ops)-writes), ph.ops)
		return
	}
	// A single-shard daemon exports segment_* series; the sharded
	// resolver registers none, so the tier is read off the store
	// directory: every flush and every merge creates exactly one
	// seg-*.seg, and every checkpoint flushes once, so files created
	// minus checkpoints is merges; a query scans every live segment.
	rep.finding("with -shards > 1 the daemon exports no segment_*, online_publish_freeze_* or pool series: " +
		"segment.flush_ms, online.publish_freeze_us and online.pool_miss_share read 0 (store.checkpoint_ms contains the flush); " +
		"segment.merges and segment.segments_scanned_per_query are derived from the store directory")
	rep.set("segment.segments_scanned_per_query", summarize(ph.segFiles).Mean, len(ph.segFiles))
	rep.set("segment.merges", created-d["store_checkpoints_total"], 0)
}

// segFilesCreated is the number of segment files the store has ever
// created: per shard directory, the highest sequence number in a
// seg-<hex>.seg name plus one.
func (r *onlineRun) segFilesCreated() float64 {
	if !r.w.durable {
		return 0
	}
	next := map[string]int64{}
	filepath.WalkDir(r.walDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		var n int64
		if _, err := fmt.Sscanf(d.Name(), "seg-%x.seg", &n); err == nil && n+1 > next[filepath.Dir(path)] {
			next[filepath.Dir(path)] = n + 1
		}
		return nil
	})
	total := 0.0
	for _, n := range next {
		total += float64(n)
	}
	return total
}

// probeBatch prices the candidate stage of a match request, which
// /v1/match does not break out: the same query groups with the same
// predicate go to /v1/query/batch with "trace": true, and decide time is
// the match stage's whole-batch histogram minus that.
func (r *onlineRun) probeBatch() {
	var enc, search, cands float64
	n := 0
	for g := 0; g < len(r.readBodyTraced) && n < 64; g++ {
		rp := r.roundTrip("probe", "POST", "/v1/query/batch", r.readBodyTraced[g])
		var out batchResp
		if !r.decode(rp, &out) || out.Trace == nil {
			continue
		}
		enc += float64(out.Trace.EncodeUS)
		search += float64(out.Trace.SearchUS)
		cands += float64(out.Trace.Candidates)
		n++
	}
	if n == 0 {
		r.rep.failCheck("no /v1/query/batch probe succeeded")
		return
	}
	rep, queries := r.rep, float64(n*r.w.group)
	rep.set("online.encode_us", enc/queries, n)
	rep.set("online.search_us", search/queries, n)
	rep.set("online.candidates_per_query", cands/queries, n)
	whole := rep.Metrics["match.decide_us_per_query"]
	decideUS := whole.V - (enc+search)/queries
	rep.set("match.decide_us_per_query", decideUS, whole.N)
	rep.set("serve.overhead_us", rep.Metrics["serve.handler_us"].V-whole.V*float64(r.w.group), n)
}

// openLoop sends reads on a seeded Poisson schedule at 40 % of the rate
// the closed loop just sustained, from the same single connection.
func (r *onlineRun) openLoop(dur time.Duration, closedRate float64, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
	order := rng.Perm(len(r.readBody))
	path, sent := "/v1/query", 0
	if r.w.group > 1 {
		path = "/v1/match"
	}
	lat, late := runOpenLoop(dur, 0.4*closedRate, rng, func() {
		r.roundTrip("openloop", "POST", path, r.readBody[order[sent%len(order)]])
		sent++
	})
	l, g := summarize(lat), summarize(late)
	r.rep.set("openloop.read_p50_ms", l.P50, l.N)
	r.rep.set("openloop.read_p99_ms", l.Tail, l.N)
	r.rep.note("openloop.read_p99_ms", fmt.Sprintf("p%g, from due time, at %.1f req/s", l.TailP, 0.4*closedRate))
	r.rep.set("openloop.late_p99_ms", g.Tail, g.N)
	r.rep.note("openloop.late_p99_ms", fmt.Sprintf("p%g", g.TailP))
}

// crashCheck kills the durable daemon without warning, restarts it on the
// same -wal directory and verifies acknowledged writes against what the
// benchmark sent: the 200 youngest inserts still resident answer with
// the pool entity's attributes, the 200 youngest deletes are gone, and
// the daemon counts E1 plus the live inserts. A process kill leaves the
// OS page cache intact, so this proves the store replays what it
// acknowledged, not that the bytes had reached the disk.
func (r *onlineRun) crashCheck(csv string) error {
	live, gone := r.fifo[max(0, len(r.fifo)-200):], r.deleted[max(0, len(r.deleted)-200):]
	if len(live) < 200 || len(gone) < 200 {
		r.rep.failCheck("crash check needs 200 live inserts and 200 deletes, have %d and %d", len(live), len(gone))
	}
	r.cl.close()
	r.d.kill()
	d, took, err := r.e.start(r.bin, append([]string{"-bulk", csv, "-wal", r.walDir}, r.w.flags...))
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r.d, r.cl = d, newClient(d.base)
	r.rep.set("store.recovery_s", took.Seconds(), 1)
	r.checkEntities("after the crash", len(r.c.e1)+len(r.fifo))
	for _, in := range live {
		if !r.residentEquals(in.id, attrMap(r.c.pool[in.pool])) {
			r.rep.failCheck("acknowledged insert %d lost or changed by the crash", in.id)
		}
	}
	for _, id := range gone {
		if rp := r.cl.do("GET", "/v1/entities/"+strconv.FormatInt(id, 10), nil); rp.status != 404 {
			r.rep.failCheck("acknowledged delete %d answers %d after the crash, want 404", id, rp.status)
		}
	}
	return nil
}
