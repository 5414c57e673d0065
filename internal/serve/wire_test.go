package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/match"
	"erfilter/internal/online"
)

// updateWire rewrites testdata/wire.golden from what the server answers.
// The committed file was recorded at PR 18, before internal/hit carried
// a probe result to the encoder; rewrite it only for a deliberate change
// of the wire format or of an answer.
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden")

const wireGolden = "testdata/wire.golden"

var wireProducts = []string{
	"canon powershot a540 digital camera",
	"nikon coolpix p100 bridge camera",
	"sony cybershot dsc w55 compact",
	"apple ipod nano 4gb silver",
	"samsung galaxy buds wireless earbuds",
	"garmin forerunner 245 running watch",
	"bose quietcomfort 35 headphones",
}

// wireEntity is entity i of the pinned collection: heavy score ties (the
// same product line under many model numbers) and one attribute a
// predicate can select on, in the order a JSON "attrs" object decodes to
// (sorted by name), so a probe that repeats an entity embeds bit for bit
// like it.
func wireEntity(i int) []entity.Attribute {
	return []entity.Attribute{
		{Name: "city", Value: []string{"berlin", "paris", "rome"}[i%3]},
		{Name: "name", Value: fmt.Sprintf("%s model %d", wireProducts[i%len(wireProducts)], i/len(wireProducts))},
	}
}

// wireServer serves n = 100 pinned entities under cfg, on one in-memory
// shard or (disk) on two disk-backed shards whose 11-entity memtables
// leave each shard at least three segments and a non-empty memtable.
func wireServer(t *testing.T, cfg online.Config, shards int, disk bool, mo *MatchOptions) string {
	t.Helper()
	if disk {
		cfg.Storage, cfg.SegmentDir, cfg.MemtableCap = online.StorageDisk, t.TempDir(), 11
	}
	res := mustOpen(t, cfg, shards)
	t.Cleanup(func() { res.Close() })
	for i := 0; i < 100; i++ {
		res.Insert(wireEntity(i))
	}
	if disk {
		for i, sh := range res.Stats().PerShard {
			if mem := sh.Entities - 11*sh.Segments; sh.Segments < 3 || mem <= 0 {
				t.Fatalf("shard %d: %d segments, %d in the memtable; want >= 3 and > 0", i, sh.Segments, mem)
			}
		}
	}
	ts := httptest.NewServer(mustServer(t, res, nil, Options{RequestTimeout: 10 * time.Second, Match: mo}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestWireGolden pins whole response bodies, byte for byte, of one
// request per method and topology: the canonical candidate order, every
// score's shortest-round-trip digits (the "-0" of an exact L2² hit
// included), the empty list as [] and the match stage's decisions.
func TestWireGolden(t *testing.T) {
	flatDP := online.Config{Method: online.FlatKNN, K: 5, Metric: knn.DotProduct, Dim: 32}
	flatL2 := flatDP
	flatL2.Metric = knn.L2Squared
	hnsw := flatL2
	hnsw.Dense, hnsw.HNSW = online.DenseHNSW, knn.HNSWParams{Seed: 7}
	knnj := testConfig()

	got := map[string]string{}
	var order []string
	record := func(name, url, contentType, body string) {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code=%d err=%v body=%s", name, resp.StatusCode, err, raw)
		}
		got[name] = string(bytes.TrimRight(raw, "\n"))
		order = append(order, name)
	}

	// entity 15 verbatim: an exact hit under every method
	const probe = `{"attrs":{"name":"nikon coolpix p100 bridge camera model 2","city":"berlin"}`
	for _, m := range []struct {
		name string
		cfg  online.Config
		opts string
	}{
		{"knnj", knnj, ``},
		{"epsjoin", epsTestConfig(), ``},
		{"flat-dp", flatDP, ``},
		{"flat-l2", flatL2, ``},
		{"hnsw-exact", hnsw, `,"approx":false`},
		{"hnsw-beam", hnsw, `,"ef":16`},
	} {
		for _, tp := range []struct {
			name   string
			shards int
			disk   bool
		}{{"1-memory", 1, false}, {"2-disk", 2, true}} {
			if tp.disk && m.cfg.Dense == online.DenseHNSW {
				tp.name, tp.disk = "2-memory", false // a disk tier serves the exact index only
			}
			url := wireServer(t, m.cfg, tp.shards, tp.disk, nil)
			record(m.name+"/"+tp.name, url+"/v1/query", "application/json", probe+m.opts+`}`)
		}
	}

	mo := &MatchOptions{Config: match.Config{Scorer: match.ScoreJaroWinkler, Threshold: 0.85}}
	url := wireServer(t, knnj, 2, true, mo)
	record("knnj/empty", url+"/v1/query", "application/json", `{"text":"zzzzqqqq xxxxjjjj"}`)
	record("knnj/where", url+"/v1/query", "application/json",
		probe+`,"where":"city = \"rome\" score >= 0.5 top 4"}`)
	record("match", url+"/v1/match", "application/json",
		`{"queries":[{"text":"canon powershot a540 digital camera model 3"},{"text":"unrelated quartz wristwatch"},`+
			`{"text":"bose quietcomfort 35 headphones model 1"}],"k":4,"budget":40}`)
	record("stream-match", url+"/v1/resolve/stream?mode=match&k=4", "application/x-ndjson",
		`{"text":"sony cybershot dsc w55 compact model 9"}`+"\n"+`{"text":"unrelated quartz wristwatch"}`+"\n")
	record("stream", url+"/v1/resolve/stream?k=2", "application/x-ndjson",
		`{"text":"garmin forerunner 245 running watch model 4"}`+"\n")

	if *updateWire {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "# %s\n%s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, rec := range strings.Split(strings.TrimPrefix(string(raw), "# "), "\n# ") {
		name, body, _ := strings.Cut(rec, "\n")
		want[name] = strings.TrimRight(body, "\n")
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d responses, the test records %d", wireGolden, len(want), len(got))
	}
	for _, name := range order {
		if got[name] != want[name] {
			t.Errorf("%s: response differs from the pinned bytes\ngot:  %s\nwant: %s", name, got[name], want[name])
		}
	}
	for _, must := range []struct{ name, sub string }{
		{"flat-l2/1-memory", `"score":-0}`},
		{"flat-l2/2-disk", `"score":-0}`},
		{"knnj/empty", `"candidates":[]`},
		{"stream-match", `"matches":[]`},
	} {
		if !strings.Contains(want[must.name], must.sub) {
			t.Errorf("%s: the pinned body lost %s: %s", must.name, must.sub, want[must.name])
		}
	}
}
