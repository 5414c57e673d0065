package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"erfilter/internal/query"
)

// onlineWorkload is one traffic mix against a real erserve child. The
// daemon is configured only through flags and driven only through /v1.
type onlineWorkload struct {
	name   string
	flags  []string       // erserve flags besides -addr, -bulk, -wal
	corpus func() *corpus // fixed; see corpusSeed
	boots  int            // daemon boots per run; setup_s is their median

	group      int    // queries per read: 1 = POST /v1/query, >1 = POST /v1/match
	where      string // predicate every read carries ("" = none)
	exactEvery int    // every n-th query (by fixed index) carries "approx": false
	writes     int    // write slots per cycle, half inserts, half deletes
	lag        int    // benchmark-inserted entities kept resident (FIFO depth)
	durable    bool   // -wal + -storage disk: segments, checkpoints, crash check
	pcFloor    float64
}

var onlineWorkloads = map[string]*onlineWorkload{
	wKNNJPoint: {
		name:   wKNNJPoint,
		flags:  []string{"-method", "knnj", "-model", "C3G", "-k", "3"},
		corpus: func() *corpus { return genCorpus(quickNoise(), 10000, 1000, 21) },
		boots:  2, group: 1, writes: 42, pcFloor: 0.95,
	},
	wHNSWPoint: {
		name:   wHNSWPoint,
		flags:  []string{"-method", "flat", "-knn-index", "hnsw", "-k", "10"},
		corpus: func() *corpus { return genCorpus(quickNoise(), 2000, 1000, 21) },
		boots:  1, group: 1, exactEvery: 10, writes: 42, pcFloor: 0.90,
	},
	wMatchDurable: {
		name: wMatchDurable,
		flags: []string{"-method", "epsjoin", "-model", "C3G", "-t", "0.25", "-shards", "2",
			"-storage", "disk", "-checkpoint-every", "128", "-memtable-cap", "1024", "-merge-fanin", "4",
			"-match", "-assign", "bipartite", "-match-t", "0.75"},
		corpus: func() *corpus { return genCorpus(d8Noise(), 6000, 1000, 125) },
		boots:  2, group: 4, where: `price ~ "[0-4]$"`, writes: 250, lag: 256, durable: true, pcFloor: 0.5,
	},
}

// onlineRun is the state of one run of an online workload.
type onlineRun struct {
	w   *onlineWorkload
	c   *corpus
	e   *env
	rep *report
	tr  *tracer // nil with tracing off
	bin string

	d      *daemon
	cl     *client
	walDir string

	readBody, readBodyTraced [][]byte
	insertBody               [][]byte

	fifo    []inserted // acknowledged inserts not deleted again, oldest first
	deleted []int64    // ids this run inserted and deleted again

	counters      // since the quality cycle and priming ended
	spanning bool // record client spans around every call (traced closed loop)
	httpSpan int  // while spanning: the current request's http span
}

// inserted is one acknowledged insert: the id the daemon answered and
// the pool entity the benchmark sent.
type inserted struct {
	id   int64
	pool int
}

// counters is what exec and read accumulate; the zero value resets them.
type counters struct {
	lat struct {
		read, readTraced, write, del []float64 // ms; reads with "trace": true apart
	}
	ops                       int
	readReqBytes, readRespLen int
	userBytesWritten          int
	encUS, searchUS, cands    float64 // sums of the daemon's "trace" sections
	tracedQueries             int
}

func runOnline(w *onlineWorkload, e *env, root, bin string, seed int64, seconds float64, trace bool) (*report, error) {
	r := &onlineRun{w: w, e: e, bin: bin, rep: newReport(w.name, seed, trace, seconds)}
	if trace {
		r.tr = newTracer()
	}
	r.rep.Host = readHost(root, e.tmp)
	r.c = w.corpus()
	r.buildBodies()

	csv := filepath.Join(e.tmp, "e1.csv")
	if err := r.c.writeCSV(csv); err != nil {
		return nil, err
	}
	if err := r.boot(csv); err != nil {
		return nil, err
	}
	defer r.cl.close()
	r.rep.set("proc.rss_after_setup_mb", statusKB(r.d.pid, "VmRSS")/1024, 0)
	r.checkResident()

	answers := r.qualityCycle()
	if w.exactEvery > 0 {
		r.hnswRecall(answers)
	}
	seq := newSequence(seed, len(r.readBody), w.writes)
	for i := 0; i < w.lag; i++ { // untimed: fill the FIFO window, warm the write path
		r.exec(seq.nextInsert(), false)
	}
	r.counters = counters{}

	dur := time.Duration(seconds * float64(time.Second))
	if trace {
		if err := r.tracedPhases(seq, dur, seed); err != nil {
			return nil, err
		}
		path, err := r.tr.write(root, w.name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace written to %s (%d spans)\n", path, len(r.tr.spans))
	} else {
		r.phaseMetrics(r.closedPhase(seq, dur, false))
	}
	r.rep.set("proc.peak_rss_mb", statusKB(r.d.pid, "VmHWM")/1024, 0)
	if r.cl.dials.Load() != 1 {
		r.rep.failCheck("load used %d connections, want exactly 1", r.cl.dials.Load())
	}
	if trace && w.durable {
		if err := r.crashCheck(csv); err != nil {
			return nil, err
		}
	}
	r.d.stop()
	r.rep.finish()
	return r.rep, nil
}

// buildBodies serialises every request the run can send, once.
func (r *onlineRun) buildBodies() {
	w, c := r.w, r.c
	for i := 0; i < len(c.q); i += w.group {
		for _, traced := range []bool{false, true} {
			m := map[string]any{}
			if w.group == 1 {
				m["attrs"] = attrMap(c.q[i])
				if w.exactEvery > 0 && i%w.exactEvery == 0 {
					m["approx"] = false
				}
			} else {
				qs := make([]map[string]any, 0, w.group)
				for _, p := range c.q[i : i+w.group] {
					qs = append(qs, map[string]any{"attrs": attrMap(p)})
				}
				m["queries"] = qs
			}
			if w.where != "" {
				m["where"] = w.where
			}
			if traced {
				m["trace"] = true
				r.readBodyTraced = append(r.readBodyTraced, mustJSON(m))
			} else {
				r.readBody = append(r.readBody, mustJSON(m))
			}
		}
	}
	for _, p := range c.pool {
		r.insertBody = append(r.insertBody, mustJSON(map[string]any{"attrs": attrMap(p)}))
	}
}

// boot starts the daemon w.boots times on fresh state and keeps the last
// one; setup_s is the median exec-to-ready time.
func (r *onlineRun) boot(csv string) error {
	var secs []float64
	for i := 0; i < r.w.boots; i++ {
		if r.d != nil {
			r.d.kill()
			if r.w.durable {
				os.RemoveAll(r.walDir)
			}
		}
		d, took, err := r.e.start(r.bin, r.daemonArgs(csv, i))
		if err != nil {
			return err
		}
		r.d = d
		secs = append(secs, took.Seconds())
	}
	r.rep.set("setup_s", median(secs), len(secs))
	r.cl = newClient(r.d.base)
	return nil
}

func (r *onlineRun) daemonArgs(csv string, boot int) []string {
	args := append([]string{"-bulk", csv}, r.w.flags...)
	if r.w.durable {
		r.walDir = filepath.Join(r.e.tmp, "wal-"+strconv.Itoa(boot))
		args = append(args, "-wal", r.walDir)
	}
	if r.tr != nil {
		args = append(args, "-pprof") // MemStats from outside, traced run only
	}
	return args
}

// checkResident verifies that all of E1 is resident and that CSV row i
// became id i, on a sample.
func (r *onlineRun) checkResident() {
	r.checkEntities("after set-up", len(r.c.e1))
	for id := 0; id < len(r.c.e1); id += len(r.c.e1) / 16 {
		if !r.residentEquals(int64(id), attrMap(r.c.e1[id])) {
			r.rep.failCheck("GET /v1/entities/%d does not return CSV row %d", id, id)
		}
	}
}

// checkEntities verifies the daemon's own count of resident entities.
func (r *onlineRun) checkEntities(when string, want int) {
	var st struct {
		Resolver struct {
			Entities int `json:"entities"`
		} `json:"resolver"`
	}
	if err := r.cl.getJSON("/v1/stats", &st); err != nil || st.Resolver.Entities != want {
		r.rep.failCheck("%s %d entities resident, want %d (%v)", when, st.Resolver.Entities, want, err)
	}
}

func (r *onlineRun) residentEquals(id int64, want map[string]string) bool {
	var got entityResp
	if err := r.cl.getJSON("/v1/entities/"+strconv.FormatInt(id, 10), &got); err != nil || len(got.Attrs) != len(want) {
		return false
	}
	for _, a := range got.Attrs {
		if want[a.Name] != a.Value {
			return false
		}
	}
	return true
}

// qualityCycle is one read-only pass over all of Q in index order, before
// any write: it is the warm-up (embedder vocabulary, pools, caches) and
// the source of pc, pq and the answers hash, which therefore depend on
// neither --seed nor run length. It returns the answer ids per query.
func (r *onlineRun) qualityCycle() [][]int64 {
	answers := make([][]int64, len(r.c.q))
	for req, body := range r.readBody {
		got, ok := r.read(req, body, false)
		if !ok {
			continue
		}
		copy(answers[req*r.w.group:], got)
	}
	var satisfies func(id int64) bool
	if r.w.where != "" {
		pred, err := query.Parse(r.w.where)
		if err != nil {
			panic(err)
		}
		satisfies = func(id int64) bool { return pred.Match(r.c.e1[id].Attrs) }
	}
	h := sha256.New()
	truth, found, answered := 0, 0, 0
	for q, ids := range answers {
		fmt.Fprintf(h, "%d:", q)
		for _, id := range ids {
			fmt.Fprintf(h, "%d,", id)
			answered++
			if id == r.c.truth[q] {
				found++
			}
		}
		h.Write([]byte{'\n'})
		// On a filtered workload only duplicates the predicate admits can
		// be found at all.
		if t := r.c.truth[q]; t >= 0 && (satisfies == nil || satisfies(t)) {
			truth++
		}
	}
	r.rep.Hash = hex.EncodeToString(h.Sum(nil))
	pc, pq := 0.0, 0.0
	if truth > 0 {
		pc = float64(found) / float64(truth)
	}
	if answered > 0 {
		pq = float64(found) / float64(answered)
	}
	r.rep.set("pc", pc, truth)
	r.rep.set("pq", pq, answered)
	if pc < r.w.pcFloor {
		r.rep.failCheck("pc %.4f is below the workload's floor %.2f", pc, r.w.pcFloor)
	}
	return answers
}

// hnswRecall compares the graph's answers with the exact scan
// ("approx": false) on 200 queries that the quality cycle served
// approximately.
func (r *onlineRun) hnswRecall(approx [][]int64) {
	hit, want, n := 0, 0, 0
	for q := 0; q < len(r.c.q) && n < 200; q++ {
		if q%r.w.exactEvery == 0 {
			continue
		}
		n++
		body := mustJSON(map[string]any{"attrs": attrMap(r.c.q[q]), "approx": false})
		exact, ok := r.read(-1, body, false)
		if !ok {
			continue
		}
		in := map[int64]bool{}
		for _, id := range approx[q] {
			in[id] = true
		}
		for _, id := range exact[0] {
			want++
			if in[id] {
				hit++
			}
		}
	}
	recall := 0.0
	if want > 0 {
		recall = float64(hit) / float64(want)
	}
	r.rep.set("knn.hnsw_recall_at_10", recall, n)
	if recall < 0.95 {
		r.rep.failCheck("HNSW recall@10 against the exact scan is %.4f, want >= 0.95", recall)
	}
}

// exec performs one op of the sequence and records it; traced selects
// the "trace": true form of a read.
func (r *onlineRun) exec(o op, traced bool) {
	switch o.kind {
	case opRead:
		body := r.readBody[o.idx]
		if traced {
			body = r.readBodyTraced[o.idx]
		}
		r.read(o.idx, body, traced)
	case opInsert:
		rp := r.roundTrip("insert", "POST", "/v1/entities", r.insertBody[o.idx])
		var out insertResp
		if !r.decode(rp, &out) {
			return
		}
		if len(out.IDs) != 1 {
			r.rep.Failed++
			return
		}
		r.fifo = append(r.fifo, inserted{out.IDs[0], o.idx})
		r.lat.write = append(r.lat.write, ms(rp.dur))
		r.userBytesWritten += userBytes(r.c.pool[o.idx])
		r.ops++
	case opDelete:
		if len(r.fifo) == 0 {
			panic("perf: delete scheduled with nothing inserted")
		}
		id := r.fifo[0].id
		r.fifo = r.fifo[1:]
		rp := r.roundTrip("delete", "DELETE", "/v1/entities/"+strconv.FormatInt(id, 10), nil)
		if rp.ok() {
			r.deleted = append(r.deleted, id)
			r.lat.del = append(r.lat.del, ms(rp.dur))
			r.userBytesWritten += 8
			r.ops++
		}
	}
}

// read sends one read request (req < 0: an ad-hoc body outside the
// sequence) and returns the answer ids per query of the request.
func (r *onlineRun) read(req int, body []byte, traced bool) ([][]int64, bool) {
	path, name := "/v1/query", "query"
	if r.w.group > 1 {
		path, name = "/v1/match", "match"
	}
	rp := r.roundTrip(name, "POST", path, body)
	var ids [][]int64
	if r.w.group == 1 {
		var out queryResp
		if !r.decode(rp, &out) {
			return nil, false
		}
		one := make([]int64, len(out.Candidates))
		for i, c := range out.Candidates {
			one[i] = c.ID
		}
		ids = [][]int64{one}
		if traced && out.Trace != nil {
			r.traceFields(out.Trace, 1)
		}
	} else {
		var out matchResp
		if !r.decode(rp, &out) {
			return nil, false
		}
		ids = make([][]int64, r.w.group)
		for _, m := range out.Matches {
			if m.Query < 0 || m.Query >= r.w.group {
				r.rep.Failed++
				return nil, false
			}
			ids[m.Query] = append(ids[m.Query], m.ID)
		}
	}
	if req >= 0 {
		if traced {
			r.lat.readTraced = append(r.lat.readTraced, ms(rp.dur))
		} else {
			r.lat.read = append(r.lat.read, ms(rp.dur))
		}
		r.readReqBytes += len(body)
		r.readRespLen += len(rp.body)
		r.ops += r.w.group
	}
	return ids, true
}

// traceFields folds the daemon's "trace" section into the layer sums and
// hangs the reported phases under the request's http span.
func (r *onlineRun) traceFields(t *traceJSON, queries int) {
	r.encUS += float64(t.EncodeUS)
	r.searchUS += float64(t.SearchUS)
	r.cands += float64(t.Candidates)
	r.tracedQueries += queries
	if !r.spanning {
		return
	}
	r.tr.reported(r.httpSpan, []string{"online.encode", "online.search"},
		[]time.Duration{time.Duration(t.EncodeUS) * time.Microsecond, time.Duration(t.SearchUS) * time.Microsecond})
}

// roundTrip is the one place requests are sent: it counts the attempt,
// counts a transport error or non-2xx as failed, and while spanning
// records the request's root span and its http child.
func (r *onlineRun) roundTrip(name, method, path string, body []byte) reply {
	rp := r.cl.do(method, path, body)
	r.rep.Attempted++
	if !rp.ok() {
		r.rep.Failed++
	}
	if r.spanning {
		root := r.tr.request("request:"+name, rp.start, rp.dur)
		r.httpSpan = r.tr.add("http", root, rp.start, rp.dur, false)
	}
	return rp
}

// decode parses the body of a 2xx reply; a malformed one is a failed
// operation. In a traced phase the decode span closes the request's trace.
func (r *onlineRun) decode(rp reply, v any) bool {
	if !rp.ok() {
		return false // roundTrip counted it
	}
	begin := time.Now()
	err := json.Unmarshal(rp.body, v)
	if r.spanning {
		took := time.Since(begin)
		root := r.tr.spans[r.httpSpan].Parent
		r.tr.add("decode", root, begin, took, false)
		r.tr.spans[root].End += took.Nanoseconds()
	}
	if err != nil {
		r.rep.Failed++
	}
	return err == nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase is what one closed-loop phase measured from outside the daemon.
type phase struct {
	wall     float64 // seconds
	ops      int
	cpu      float64 // daemon utime+stime, seconds
	ctx      float64 // daemon context switches
	rss      []float64
	segFiles []float64 // live segment files per sample (durable only)
	walBytes float64   // WAL bytes appended, from file growth (durable only)
}

// closedPhase runs the closed loop for dur: one request in flight, the
// next sent when the reply is in. A sampler reads VmRSS (and the store
// directory of a durable daemon) every 200 ms; it touches /proc and the
// filesystem only, never the daemon's socket. With traced set, client
// spans are recorded around every call and every second read carries
// "trace": true, so traced and untraced reads share one time window and
// their difference is the tracing, not the drift of a growing store.
func (r *onlineRun) closedPhase(seq *sequence, dur time.Duration, traced bool) phase {
	var ph phase
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		sizes := map[string]int64{}
		r.scanStore(sizes) // baseline: bytes already there are not this phase's
		for {
			select {
			case <-stop:
				_, grown := r.scanStore(sizes)
				ph.walBytes += grown
				return
			case <-tick.C:
				ph.rss = append(ph.rss, statusKB(r.d.pid, "VmRSS")/1024)
				if r.w.durable {
					segs, grown := r.scanStore(sizes)
					ph.segFiles = append(ph.segFiles, segs)
					ph.walBytes += grown
				}
			}
		}
	}()
	cpu0, _ := cpuSeconds(r.d.pid)
	ctx0 := ctxSwitches(r.d.pid)
	ops0 := r.ops
	begin := time.Now()
	r.spanning = traced
	reads := 0
	for deadline := begin.Add(dur); time.Now().Before(deadline); {
		o := seq.next()
		if o.kind == opRead {
			reads++
		}
		r.exec(o, traced && reads%2 == 0)
	}
	r.spanning = false
	ph.wall = time.Since(begin).Seconds()
	cpu1, _ := cpuSeconds(r.d.pid)
	ph.cpu, ph.ctx, ph.ops = cpu1-cpu0, ctxSwitches(r.d.pid)-ctx0, r.ops-ops0
	close(stop)
	<-done
	return ph
}

// scanStore lists the durable store's directory tree: it returns the
// number of live segment files and how many bytes the WAL files grew
// since the previous scan (sizes carries the last seen size per file).
// Growth of a WAL file that was rotated and trimmed between two scans is
// missed; at one checkpoint per few hundred records that is well under
// a percent.
func (r *onlineRun) scanStore(sizes map[string]int64) (segFiles, walGrown float64) {
	if !r.w.durable {
		return 0, 0
	}
	filepath.WalkDir(r.walDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			segFiles++
		case strings.HasPrefix(name, "wal-"):
			if info, err := d.Info(); err == nil {
				if grew := info.Size() - sizes[path]; grew > 0 {
					walGrown += float64(grew)
				}
				sizes[path] = info.Size()
			}
		}
		return nil
	})
	return segFiles, walGrown
}

// phaseMetrics turns a closed-loop phase into the run metrics that come from
// it, each over the whole phase: throughput and CPU per op carry every
// stall the phase had (checkpoints, merges, GC), the medians do not.
// Reads that carried "trace": true (traced run only) count as ops but
// not towards the read median.
func (r *onlineRun) phaseMetrics(ph phase) {
	rd, wr := summarize(r.lat.read), summarize(r.lat.write)
	r.rep.set("throughput_ops_s", float64(ph.ops)/ph.wall, ph.ops)
	r.rep.set("read_p50_ms", rd.P50, rd.N)
	r.rep.set("write_p50_ms", wr.P50, wr.N)
	r.rep.set("cpu_ms_per_op", 1000*ph.cpu/float64(ph.ops), ph.ops)
	r.rep.set("rss_mb", median(ph.rss), len(ph.rss))
}
