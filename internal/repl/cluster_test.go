package repl_test

// End-to-end replication tests: a real leader and followers wired over
// httptest servers, the follower tailers pulling the leader's WAL
// exactly as production does. The failover test is the property the
// subsystem exists for — random workload, leader killed mid-stream,
// a follower promoted — every acked write must survive and every
// replica must converge to byte-identical answers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
	"erfilter/internal/repl"
	"erfilter/internal/retry"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

func clusterConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3, Clean: true,
	}
}

// replicaHarness is one node of a test cluster: its private file
// system, its replication node and the HTTP server fronting it.
type replicaHarness struct {
	m       *faultfs.Mem
	node    *repl.Node
	srv     *httptest.Server
	tail    *repl.Tailer
	stopped bool
}

func (h *replicaHarness) URL() string { return h.srv.URL }

func (h *replicaHarness) stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	if h.tail != nil {
		h.tail.Close()
	}
	h.srv.Close()
	h.node.Close()
}

func serveNode(t *testing.T, node *repl.Node) *httptest.Server {
	t.Helper()
	return serveBackend(t, nil, serve.Options{Replication: node, RequestTimeout: 10 * time.Second})
}

func serveBackend(t *testing.T, store *online.Store, opt serve.Options) *httptest.Server {
	t.Helper()
	s, err := serve.NewServer(nil, store, opt)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	return httptest.NewServer(s.Handler())
}

// clusterStorage is the storage shape every node of the running test
// opens under: the zero value is memory; withDiskStorage swaps in a
// tiny-memtable disk tier for the duration of a test.
var clusterStorage online.Config

func withDiskStorage(t *testing.T) {
	clusterStorage = online.Config{Storage: online.StorageDisk, MemtableCap: 8, MergeFanin: 2}
	t.Cleanup(func() { clusterStorage = online.Config{} })
}

// openNodeStore opens a node's store — the same call whatever role the
// node is about to play.
func openNodeStore(t *testing.T, m *faultfs.Mem) *online.Store {
	t.Helper()
	cfg := clusterConfig()
	cfg.Storage, cfg.MemtableCap, cfg.MergeFanin = clusterStorage.Storage, clusterStorage.MemtableCap, clusterStorage.MergeFanin
	st, err := online.OpenStore("node", cfg, 1, online.StoreOptions{FS: m})
	if err != nil {
		t.Fatalf("open node store: %v", err)
	}
	return st
}

func startLeader(t *testing.T, m *faultfs.Mem, opt repl.Options) *replicaHarness {
	t.Helper()
	st := openNodeStore(t, m)
	node, err := repl.NewLeader(st, opt)
	if err != nil {
		t.Fatalf("new leader: %v", err)
	}
	h := &replicaHarness{m: m, node: node, srv: serveNode(t, node)}
	t.Cleanup(h.stop)
	return h
}

// fastTail shortens the long poll and backoff so tests converge in
// milliseconds instead of the production-friendly seconds.
func fastTail() repl.TailerOptions {
	return repl.TailerOptions{
		Wait:  100 * time.Millisecond,
		Retry: retry.Policy{Base: 2 * time.Millisecond, Cap: 25 * time.Millisecond},
	}
}

func startFollower(t *testing.T, m *faultfs.Mem, id, upstream string, opt repl.Options) *replicaHarness {
	t.Helper()
	opt.ID = id
	node, err := repl.NewFollower(openNodeStore(t, m), opt)
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	if upstream != "" {
		if err := node.SetUpstream(upstream); err != nil {
			t.Fatalf("set upstream: %v", err)
		}
	}
	h := &replicaHarness{m: m, node: node, srv: serveNode(t, node)}
	h.tail = repl.StartTailer(node, fastTail())
	t.Cleanup(h.stop)
	return h
}

func doJSON(t *testing.T, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header
}

type errBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func insertEntities(t *testing.T, base string, texts ...string) ([]int64, http.Header) {
	t.Helper()
	ents := make([]map[string]string, len(texts))
	for i, v := range texts {
		ents[i] = map[string]string{"text": v}
	}
	var out struct {
		IDs []int64 `json:"ids"`
	}
	code, h := doJSON(t, http.MethodPost, base+"/v1/entities", map[string]any{"entities": ents}, &out)
	if code != http.StatusOK {
		t.Fatalf("insert on %s: status %d", base, code)
	}
	if len(out.IDs) != len(texts) {
		t.Fatalf("insert returned %d ids for %d entities", len(out.IDs), len(texts))
	}
	return out.IDs, h
}

// queryCandidates runs one query and returns the status plus the
// candidate list re-marshalled to canonical JSON, so two replicas'
// answers can be compared byte for byte.
func queryCandidates(t *testing.T, base, q, minEpoch string) (int, string) {
	t.Helper()
	body := map[string]any{"text": q, "k": 3}
	if minEpoch != "" {
		body["min_epoch"] = minEpoch
	}
	var out map[string]any
	code, _ := doJSON(t, http.MethodPost, base+"/v1/query", body, &out)
	b, err := json.Marshal(out["candidates"])
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitConverged(t *testing.T, leader, f *replicaHarness) {
	t.Helper()
	waitFor(t, 10*time.Second, "follower to converge with the leader", func() bool {
		return f.node.LogPos() == leader.node.LogPos()
	})
}

// scrape fetches and parses a node's /v1/metrics.
func scrape(t *testing.T, base string) []metrics.Sample {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// scrapeSeries reads one series off a node's /v1/metrics.
func scrapeSeries(t *testing.T, base, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := metrics.Find(scrape(t, base), name, labels)
	if !ok {
		t.Fatalf("scrape of %s is missing %s%v", base, name, labels)
	}
	return v
}

// scrapeGauge reads one label-less series.
func scrapeGauge(t *testing.T, base, name string) float64 {
	t.Helper()
	return scrapeSeries(t, base, name, nil)
}

// TestReplFollowerMetricsFollowBootstrap: a server built over an
// un-bootstrapped follower must not freeze its online_* series on the
// empty placeholder resolver — after the bootstrap swaps the instance
// in, and after every later mirrored write, a scrape reads the current
// resolver, like /v1/stats does.
func TestReplFollowerMetricsFollowBootstrap(t *testing.T) {
	leader := startLeader(t, faultfs.NewMem(), repl.Options{ID: "leader"})
	insertEntities(t, leader.URL(), "Atelier Logic Inc", "Quantum Paper Co", "Nordic Fjord Trading")

	f := startFollower(t, faultfs.NewMem(), "f1", "", repl.Options{})
	if got := scrapeGauge(t, f.URL(), "online_entities"); got != 0 {
		t.Fatalf("un-bootstrapped follower exports online_entities = %v, want 0", got)
	}
	if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/replica-of", map[string]any{"upstream": leader.URL()}, nil); code != http.StatusOK {
		t.Fatalf("replica-of: status %d", code)
	}
	waitConverged(t, leader, f)
	if got, want := scrapeGauge(t, f.URL(), "online_entities"), scrapeGauge(t, leader.URL(), "online_entities"); got != want || want != 3 {
		t.Fatalf("bootstrapped follower exports online_entities = %v, leader %v, want 3", got, want)
	}

	insertEntities(t, leader.URL(), "Quanta Papers Company")
	waitConverged(t, leader, f)
	if got := scrapeGauge(t, f.URL(), "online_entities"); got != 4 {
		t.Fatalf("after a mirrored insert the follower exports online_entities = %v, want 4", got)
	}
	if got := scrapeGauge(t, f.URL(), "online_epoch_publishes_total"); got < 2 {
		t.Fatalf("follower online_epoch_publishes_total = %v never moved", got)
	}
}

// TestReplWireProtocolPinned pins what a follower of any version sees on
// the wire, with the header names and error codes spelled out literally:
// /v1/wal serves the leader's segment bytes verbatim from offset 0 (magic
// included) under X-ER-Term/At/Next/End, /v1/snapshot?repl=1 serves the
// ordinary snapshot stream anchored by X-ER-Repl-Pos at a rotation
// boundary, a trimmed position answers 410 and a position beyond the log
// 409.
func TestReplWireProtocolPinned(t *testing.T) {
	lm := faultfs.NewMem()
	leader := startLeader(t, lm, repl.Options{ID: "leader"})
	insertEntities(t, leader.URL(), "Atelier Logic Inc", "Quantum Paper Co")
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(leader.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	wantHeaders := func(resp *http.Response, want map[string]string) {
		t.Helper()
		for k, v := range want {
			if got := resp.Header.Get(k); got != v {
				t.Errorf("%s = %q, want %q", k, got, v)
			}
		}
	}

	seg1, _ := lm.FileBytes("node/wal-0000000000000001.seg")
	end := fmt.Sprintf("1.%d", len(seg1))
	resp, body := get("/v1/wal?from=1.0&id=f")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, seg1) || !bytes.HasPrefix(body, []byte("ERWAL\x01\n")) {
		t.Fatalf("/v1/wal from 1.0: status %d, %d bytes; want the %d bytes of segment 1, magic first", resp.StatusCode, len(body), len(seg1))
	}
	wantHeaders(resp, map[string]string{
		"X-ER-Term": "0", "X-ER-At": "1.0", "X-ER-Next": end, "X-ER-End": end,
		"Content-Type": "application/octet-stream",
	})
	resp, body = get("/v1/wal?from=1.7&max=5")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, seg1[7:12]) {
		t.Fatalf("/v1/wal from 1.7 max 5: status %d body %x, want %x", resp.StatusCode, body, seg1[7:12])
	}
	wantHeaders(resp, map[string]string{"X-ER-At": "1.7", "X-ER-Next": "1.12", "X-ER-End": end})

	var saved bytes.Buffer
	if err := leader.node.Resolver().Save(&saved); err != nil {
		t.Fatal(err)
	}
	resp, body = get("/v1/snapshot?repl=1")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, saved.Bytes()) {
		t.Fatalf("/v1/snapshot?repl=1: status %d, %d bytes; want the %d bytes Save writes", resp.StatusCode, len(body), saved.Len())
	}
	wantHeaders(resp, map[string]string{"X-ER-Repl-Pos": "2.0", "X-ER-Term": "0", "Content-Type": "application/octet-stream"})

	var eb errBody
	if code, _ := doJSON(t, http.MethodGet, leader.URL()+"/v1/wal?from=7.0", nil, &eb); code != http.StatusConflict || eb.Error.Code != "wal_diverged" {
		t.Errorf("fetch beyond the log = %d %q, want 409 wal_diverged", code, eb.Error.Code)
	}
	if err := leader.node.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, http.MethodGet, leader.URL()+"/v1/wal?from=1.0", nil, &eb); code != http.StatusGone || eb.Error.Code != "wal_trimmed" {
		t.Errorf("fetch of trimmed history = %d %q, want 410 wal_trimmed", code, eb.Error.Code)
	}
}

// seriesNames scrapes a node and returns the sorted set of series names.
func seriesNames(t *testing.T, base string) []string {
	t.Helper()
	set := map[string]bool{}
	for _, sm := range scrape(t, base) {
		set[sm.Name] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestReplMetricsSeriesSetAcrossRoles: a role is a state of the one
// store, not a type, so the set of exported series names is identical on
// a leader, on a bootstrapped follower and on that follower after its
// promotion — and the store's wal_*/store_* series read the live log:
// the follower's fsyncs count its applies, and after /v1/failover the
// new leader's group commits show up without a restart.
func TestReplMetricsSeriesSetAcrossRoles(t *testing.T) {
	leader := startLeader(t, faultfs.NewMem(), repl.Options{ID: "leader"})
	f := startFollower(t, faultfs.NewMem(), "f", leader.URL(), repl.Options{})
	waitConverged(t, leader, f) // bootstrapped: the inserts below arrive through the tail
	insertEntities(t, leader.URL(), "Atelier Logic Inc", "Quantum Paper Co", "Nordic Fjord Trading")
	waitConverged(t, leader, f)
	wal := func(base, name string) float64 {
		t.Helper()
		return scrapeSeries(t, base, name, map[string]string{"shard": "0"})
	}

	want := seriesNames(t, leader.URL())
	for _, must := range []string{"wal_fsync_duration_seconds_count", "wal_commit_batch_records_count", "store_checkpoints_total", "store_degraded", "erserve_repl_role"} {
		if i := sort.SearchStrings(want, must); i == len(want) || want[i] != must {
			t.Fatalf("the leader exports no %s", must)
		}
	}
	if got := seriesNames(t, f.URL()); !reflect.DeepEqual(got, want) {
		t.Errorf("a follower's series set differs from its leader's:\n  follower %v\n  leader   %v", got, want)
	}
	if got := wal(f.URL(), "wal_fsyncs_total"); got < 1 {
		t.Errorf("follower wal_fsyncs_total = %v: its applies fsync the log it exports", got)
	}

	leader.srv.Close()
	leader.m.Crash()
	leader.stop()
	if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/failover", nil, nil); code != http.StatusOK {
		t.Fatalf("failover: status %d", code)
	}
	before := wal(f.URL(), "wal_commit_batch_records_count")
	insertEntities(t, f.URL(), "Post Failover Corp")
	if got := seriesNames(t, f.URL()); !reflect.DeepEqual(got, want) {
		t.Errorf("the promoted follower's series set differs from a leader's:\n  promoted %v\n  leader   %v", got, want)
	}
	if got := wal(f.URL(), "wal_commit_batch_records_count"); got <= before {
		t.Errorf("wal_commit_batch_records_count stayed at %v across a write on the promoted leader", got)
	}
	if got := scrapeGauge(t, f.URL(), "erserve_repl_role"); got != float64(repl.RoleLeader) {
		t.Errorf("erserve_repl_role = %v after failover, want leader", got)
	}
}

func TestReplFollowersServeLeaderWritesAndEpochs(t *testing.T) {
	leader := startLeader(t, faultfs.NewMem(), repl.Options{ID: "leader"})
	f1 := startFollower(t, faultfs.NewMem(), "f1", leader.URL(), repl.Options{})
	f2 := startFollower(t, faultfs.NewMem(), "f2", leader.URL(), repl.Options{})

	corpus := []string{
		"Atelier Logic Inc", "Atelier Logik Incorporated",
		"Quantum Paper Co", "Quanta Papers Company",
		"Nordic Fjord Trading", "Nordik Fiord Traders",
	}
	var ids []int64
	var lastEpoch string
	for i, v := range corpus {
		got, h := insertEntities(t, leader.URL(), v, fmt.Sprintf("%s branch %d", v, i))
		ids = append(ids, got...)
		lastEpoch = h.Get(repl.HeaderEpoch)
	}
	if lastEpoch == "" {
		t.Fatal("insert response missing the epoch header")
	}
	if code, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/entities/%d", leader.URL(), ids[0]), nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	waitConverged(t, leader, f1)
	waitConverged(t, leader, f2)

	// Converged followers answer queries byte-identically to the leader,
	// and satisfy the client's read-your-writes epoch bound.
	for _, probe := range []string{"Atelier Logic", "Quantum Papers", "Nordic Trading"} {
		_, want := queryCandidates(t, leader.URL(), probe, "")
		for i, f := range []*replicaHarness{f1, f2} {
			code, got := queryCandidates(t, f.URL(), probe, lastEpoch)
			if code != http.StatusOK {
				t.Fatalf("follower %d query %q: status %d", i+1, probe, code)
			}
			if got != want {
				t.Errorf("follower %d diverges on %q:\n  got  %s\n  want %s", i+1, probe, got, want)
			}
		}
	}

	// The replicated delete took effect; its neighbor survived.
	if code, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/entities/%d", f1.URL(), ids[0]), nil, nil); code != http.StatusNotFound {
		t.Errorf("deleted entity still resident on follower: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/entities/%d", f1.URL(), ids[1]), nil, nil); code != http.StatusOK {
		t.Errorf("live entity missing on follower: status %d", code)
	}

	// An epoch the follower has not reached answers 412, not stale data.
	var eb errBody
	code, _ := doJSON(t, http.MethodPost, f1.URL()+"/v1/query",
		map[string]any{"text": "x", "k": 1, "min_epoch": "9999.0"}, &eb)
	if code != http.StatusPreconditionFailed || eb.Error.Code != serve.CodeStaleEpoch {
		t.Errorf("future min_epoch = %d %q, want 412 %q", code, eb.Error.Code, serve.CodeStaleEpoch)
	}

	// Roles ride readyz; followers refuse writes with a routable error.
	if _, h := doJSON(t, http.MethodGet, f1.URL()+"/v1/readyz", nil, nil); h.Get(repl.HeaderRole) != "follower" {
		t.Errorf("follower readyz role header = %q, want follower", h.Get(repl.HeaderRole))
	}
	if _, h := doJSON(t, http.MethodGet, leader.URL()+"/v1/readyz", nil, nil); h.Get(repl.HeaderRole) != "leader" {
		t.Errorf("leader readyz role header = %q, want leader", h.Get(repl.HeaderRole))
	}
	var web errBody
	if code, _ := doJSON(t, http.MethodPost, f1.URL()+"/v1/entities", map[string]any{"text": "nope"}, &web); code != http.StatusServiceUnavailable || web.Error.Code != serve.CodeNotLeader {
		t.Errorf("write on follower = %d %q, want 503 %q", code, web.Error.Code, serve.CodeNotLeader)
	}
}

// TestReplPromoteRefusesUnbootstrappedFollower: a replica that has never
// installed a leader's cut — a fresh directory, or one that once led and
// still holds that reign's entities — is no candidate. /v1/failover
// refuses it before the lease is touched: the lease keeps its term and
// owner, the replica keeps its role, and the real leader keeps writing.
// Once the same replica has bootstrapped, the same call promotes it.
func TestReplPromoteRefusesUnbootstrappedFollower(t *testing.T) {
	leaseFS := faultfs.NewMem()
	lease := func() *repl.Lease { return repl.NewLease(leaseFS, "shared", "leader.lease") }
	a := startLeader(t, faultfs.NewMem(), repl.Options{ID: "a", Lease: lease()})
	insertEntities(t, a.URL(), "acme anvil corporation", "acme anvil corp")

	exLeader := faultfs.NewMem()
	old := openNodeStore(t, exLeader)
	if _, err := old.Insert([]entity.Attribute{{Name: "text", Value: "a stale reign's entity"}}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	var f *replicaHarness
	for _, id := range []string{"fresh", "ex-leader"} {
		m := faultfs.NewMem()
		if id == "ex-leader" {
			m = exLeader
		}
		f = startFollower(t, m, id, "", repl.Options{Lease: lease()})
		var e errBody
		if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/failover", nil, &e); code != http.StatusServiceUnavailable || e.Error.Code != serve.CodeStaleReplica {
			t.Fatalf("%s: failover of a never-bootstrapped replica: %d %+v, want 503 %s", id, code, e, serve.CodeStaleReplica)
		}
		if term, owner, err := lease().Read(); err != nil || term != 1 || owner != "a" {
			t.Fatalf("%s: the refused failover left the lease at term %d, owner %q (%v); want 1, a", id, term, owner, err)
		}
		if f.node.Role() != repl.RoleFollower || f.node.Term() != 0 {
			t.Fatalf("%s: the refused failover left role %s, term %d", id, f.node.Role(), f.node.Term())
		}
		if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/entities", map[string]any{"text": "x"}, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("%s: a write on the refused replica answered %d, want 503", id, code)
		}
		insertEntities(t, a.URL(), "the leader still leads "+id)

		if err := f.node.SetUpstream(a.URL()); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, a, f)
	}
	// Bootstrapping wiped the stale reign; now the replica is a candidate.
	_, want := queryCandidates(t, a.URL(), "a stale reign's entity", "")
	if _, got := queryCandidates(t, f.URL(), "a stale reign's entity", ""); got != want {
		t.Fatalf("the bootstrapped ex-leader answers %s, its leader %s", got, want)
	}
	var out struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/failover", nil, &out); code != http.StatusOK || out.Role != "leader" || out.Term != 2 {
		t.Fatalf("failover of the bootstrapped replica: %d %+v, want 200 leader at term 2", code, out)
	}
}

// TestReplFailoverCrashPreservesAckedWrites is the subsystem's core
// property: under a random workload with semi-sync acks, crashing the
// leader and promoting the most advanced follower loses no acked write,
// the survivors converge to byte-identical answers — the same answers an
// unreplicated store gives when fed the same operations — and the
// crashed ex-leader comes back fenced.
func TestReplFailoverCrashPreservesAckedWrites(t *testing.T) { testFailoverCrash(t) }

// TestReplFailoverCrashPreservesAckedWritesDisk is the same property
// with every node — leader, followers, the promoted survivor and the
// unreplicated oracle — on -storage disk: memtable flushes on the
// followers' apply path, leader checkpoints trimming the log under the
// slower follower (which re-bootstraps into its segment tier), and a
// promotion over a tier.
func TestReplFailoverCrashPreservesAckedWritesDisk(t *testing.T) {
	withDiskStorage(t)
	testFailoverCrash(t)
}

func testFailoverCrash(t *testing.T) {
	leaseFS := faultfs.NewMem()
	lease := func() *repl.Lease { return repl.NewLease(leaseFS, "shared", "leader.lease") }

	a := startLeader(t, faultfs.NewMem(), repl.Options{
		ID: "a", Lease: lease(), AckReplicas: 1, AckTimeout: 10 * time.Second,
	})
	b := startFollower(t, faultfs.NewMem(), "b", a.URL(), repl.Options{Lease: lease()})
	c := startFollower(t, faultfs.NewMem(), "c", a.URL(), repl.Options{Lease: lease()})

	rng := rand.New(rand.NewSource(7))
	oracle := map[int64]string{} // acked live entities: id -> text
	deleted := map[int64]bool{}  // acked tombstones
	// The same operations, in order, go to an unreplicated store of the
	// same storage kind: replication must be invisible in the answers.
	plain := openNodeStore(t, faultfs.NewMem())
	defer plain.Close()
	seq := 0
	writeRound := func(base string) {
		t.Helper()
		if rng.Float64() < 0.8 || len(oracle) == 0 {
			n := 1 + rng.Intn(3)
			texts := make([]string, n)
			batch := make([][]entity.Attribute, n)
			for i := range texts {
				seq++
				texts[i] = fmt.Sprintf("Entity Corp %d variant %d", seq, rng.Intn(100))
				batch[i] = []entity.Attribute{{Name: "text", Value: texts[i]}}
			}
			ids, _ := insertEntities(t, base, texts...)
			for i, id := range ids {
				oracle[id] = texts[i]
			}
			if want, err := plain.InsertBatch(batch); err != nil || !reflect.DeepEqual(want, ids) {
				t.Fatalf("the replicated cluster assigned ids %v, an unreplicated store %v (%v)", ids, want, err)
			}
		} else {
			var pick int64
			k := rng.Intn(len(oracle))
			for id := range oracle {
				if k == 0 {
					pick = id
					break
				}
				k--
			}
			if code, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/entities/%d", base, pick), nil, nil); code != http.StatusOK {
				t.Fatalf("delete %d: status %d", pick, code)
			}
			delete(oracle, pick)
			deleted[pick] = true
			if ok, err := plain.Delete(pick); !ok || err != nil {
				t.Fatalf("unreplicated delete %d: %v %v", pick, ok, err)
			}
		}
	}
	for range 30 {
		writeRound(a.URL())
	}

	// Kill the leader: power loss, no goodbye. Every write above was
	// acked by at least one follower before it returned.
	a.srv.Close()
	a.m.Crash()
	a.stop()

	// Promote whichever follower saw more of the log; the other one is
	// re-parented under it.
	newLeader, other := b, c
	if newLeader.node.LogPos().Less(other.node.LogPos()) {
		newLeader, other = other, newLeader
	}
	var promo struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	if code, _ := doJSON(t, http.MethodPost, newLeader.URL()+"/v1/failover", nil, &promo); code != http.StatusOK {
		t.Fatalf("failover: status %d", code)
	}
	if promo.Role != "leader" || promo.Term < 2 {
		t.Fatalf("promotion = role %q term %d, want leader at term >= 2", promo.Role, promo.Term)
	}
	if code, _ := doJSON(t, http.MethodPost, other.URL()+"/v1/replica-of",
		map[string]string{"upstream": newLeader.URL()}, nil); code != http.StatusOK {
		t.Fatalf("replica-of: status %d", code)
	}

	// Every acked write survives the failover; every acked delete holds.
	for id, want := range oracle {
		var got struct {
			Attrs []struct {
				Name  string `json:"name"`
				Value string `json:"value"`
			} `json:"attrs"`
		}
		code, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/entities/%d", newLeader.URL(), id), nil, &got)
		if code != http.StatusOK {
			t.Fatalf("acked entity %d lost in failover: status %d", id, code)
		}
		if len(got.Attrs) != 1 || got.Attrs[0].Value != want {
			t.Errorf("entity %d = %+v, want value %q", id, got.Attrs, want)
		}
	}
	for id := range deleted {
		if code, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/entities/%d", newLeader.URL(), id), nil, nil); code != http.StatusNotFound {
			t.Errorf("acked delete %d resurrected by failover: status %d", id, code)
		}
	}

	// The new leader takes writes; the surviving follower converges to
	// byte-identical answers.
	for range 10 {
		writeRound(newLeader.URL())
	}
	waitConverged(t, newLeader, other)
	psrv := serveBackend(t, plain, serve.Options{})
	defer psrv.Close()
	for _, probe := range []string{"Entity Corp 3", "Entity Corp 12 variant", "Entity Corp 40"} {
		_, want := queryCandidates(t, psrv.URL, probe, "")
		for name, h := range map[string]*replicaHarness{"new leader": newLeader, "surviving follower": other} {
			if _, got := queryCandidates(t, h.URL(), probe, ""); got != want {
				t.Errorf("the %s diverges from an unreplicated store on %q:\n  got  %s\n  want %s", name, probe, got, want)
			}
		}
	}

	// The crashed ex-leader restarts: only its synced prefix survived.
	// Consulting the lease, it learns it was deposed and comes up
	// read-only; its writes are refused with a routable error.
	a.m.Restart(nil)
	st := openNodeStore(t, a.m)
	defer st.Close()
	revenant, err := repl.NewLeader(st, repl.Options{ID: "a", Lease: lease()})
	if err != nil {
		t.Fatalf("restart ex-leader: %v", err)
	}
	if revenant.Role() != repl.RoleDeposed {
		t.Fatalf("ex-leader restarted as %s, want deposed", revenant.Role())
	}
	rsrv := serveNode(t, revenant)
	defer rsrv.Close()
	var eb errBody
	if code, _ := doJSON(t, http.MethodPost, rsrv.URL+"/v1/entities", map[string]any{"text": "zombie write"}, &eb); code != http.StatusServiceUnavailable || eb.Error.Code != serve.CodeNotLeader {
		t.Fatalf("deposed write = %d %q, want 503 %q", code, eb.Error.Code, serve.CodeNotLeader)
	}

	// Even a lease-blind restart cannot feed the survivors: its stream
	// carries term 1 and the followers are fenced at term >= 2.
	zombie, err := repl.NewLeader(st, repl.Options{ID: "a-zombie"})
	if err != nil {
		t.Fatalf("lease-blind restart: %v", err)
	}
	if zombie.Term() != 1 {
		t.Fatalf("replayed ex-leader term = %d, want 1", zombie.Term())
	}
	zsrv := serveNode(t, zombie)
	defer zsrv.Close()
	before := other.node.LogPos()
	if code, _ := doJSON(t, http.MethodPost, other.URL()+"/v1/replica-of",
		map[string]string{"upstream": zsrv.URL}, nil); code != http.StatusOK {
		t.Fatalf("replica-of zombie: status %d", code)
	}
	waitFor(t, 5*time.Second, "the follower to refuse the deposed leader's stream", func() bool {
		ns, ok := other.node.Stats().(repl.NodeStats)
		return ok && strings.Contains(ns.TailError, "deposed")
	})
	if pos := other.node.LogPos(); pos != before {
		t.Fatalf("follower advanced on a deposed leader's stream: %s -> %s", before, pos)
	}

	// Re-parented under the real leader, it picks right back up.
	if code, _ := doJSON(t, http.MethodPost, other.URL()+"/v1/replica-of",
		map[string]string{"upstream": newLeader.URL()}, nil); code != http.StatusOK {
		t.Fatalf("re-parent back: status %d", code)
	}
	writeRound(newLeader.URL())
	waitConverged(t, newLeader, other)
}

func TestReplFollowerCrashRestartResumesTailing(t *testing.T) {
	leader := startLeader(t, faultfs.NewMem(), repl.Options{ID: "leader"})
	fm := faultfs.NewMem()
	f := startFollower(t, fm, "f", leader.URL(), repl.Options{})

	for i := range 25 {
		insertEntities(t, leader.URL(), fmt.Sprintf("Crashproof Industries %d", i))
	}
	waitConverged(t, leader, f)

	// Power-cycle the follower; whatever it had not fsynced is gone.
	f.stop()
	fm.Crash()
	fm.Restart(nil)

	for i := 25; i < 35; i++ {
		insertEntities(t, leader.URL(), fmt.Sprintf("Crashproof Industries %d", i))
	}

	f2 := startFollower(t, fm, "f", leader.URL(), repl.Options{})
	waitConverged(t, leader, f2)
	if got, want := f2.node.Resolver().Len(), leader.node.Resolver().Len(); got != want {
		t.Errorf("restarted follower holds %d entities, leader %d", got, want)
	}
	_, want := queryCandidates(t, leader.URL(), "Crashproof Industries", "")
	if _, got := queryCandidates(t, f2.URL(), "Crashproof Industries", ""); got != want {
		t.Errorf("restarted follower diverges:\n  got  %s\n  want %s", got, want)
	}
}

func TestReplProxyRoutesWritesAndFailsOver(t *testing.T) {
	leader := startLeader(t, faultfs.NewMem(), repl.Options{ID: "p-leader"})
	f := startFollower(t, faultfs.NewMem(), "p-f", leader.URL(), repl.Options{})

	proxy, err := serve.NewProxy([]string{leader.URL(), f.URL()}, serve.ProxyOptions{
		ProbeEvery: 25 * time.Millisecond, EjectAfter: 2,
	})
	if err != nil {
		t.Fatalf("new proxy: %v", err)
	}
	t.Cleanup(proxy.Close)
	psrv := httptest.NewServer(proxy.Handler())
	t.Cleanup(psrv.Close)

	// Writes route to the leader even when sent to the proxy.
	ids, _ := insertEntities(t, psrv.URL, "Proxy Metals AG", "Proxy Metals Aktiengesellschaft")
	if leader.node.Resolver().Len() != 2 {
		t.Fatalf("proxied write missed the leader: %d entities", leader.node.Resolver().Len())
	}
	waitConverged(t, leader, f)

	// Reads fan out across the rotation and keep answering.
	for i := range 6 {
		if code, cands := queryCandidates(t, psrv.URL, "Proxy Metals", ""); code != http.StatusOK || cands == "null" {
			t.Fatalf("proxied read %d: status %d candidates %s", i, code, cands)
		}
	}
	for range 4 {
		if code, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/entities/%d", psrv.URL, ids[0]), nil, nil); code != http.StatusOK {
			t.Fatalf("proxied get: status %d", code)
		}
	}
	var stats struct {
		Leader string `json:"leader"`
	}
	if code, _ := doJSON(t, http.MethodGet, psrv.URL+"/v1/stats", nil, &stats); code != http.StatusOK || stats.Leader != leader.URL() {
		t.Fatalf("proxy stats = %d leader %q, want 200 %q", code, stats.Leader, leader.URL())
	}

	// The leader dies; after an explicit failover the proxy discovers
	// the new leader on its next probe round, no reconfiguration.
	leader.srv.Close()
	leader.m.Crash()
	leader.stop()
	if code, _ := doJSON(t, http.MethodPost, f.URL()+"/v1/failover", nil, nil); code != http.StatusOK {
		t.Fatalf("failover: status %d", code)
	}
	waitFor(t, 5*time.Second, "the proxy to discover the new leader", func() bool {
		var st struct {
			Leader string `json:"leader"`
		}
		doJSON(t, http.MethodGet, psrv.URL+"/v1/stats", nil, &st)
		return st.Leader == f.URL()
	})
	if ids2, _ := insertEntities(t, psrv.URL, "Post Failover Corp"); len(ids2) != 1 {
		t.Fatalf("post-failover proxied write returned %d ids", len(ids2))
	}
	if code, _ := queryCandidates(t, psrv.URL, "Post Failover", ""); code != http.StatusOK {
		t.Fatalf("post-failover proxied read: status %d", code)
	}
}
