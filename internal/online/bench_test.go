package online

import (
	"fmt"
	"sync/atomic"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/metrics"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

var benchWords = []string{
	"canon", "nikon", "sony", "olympus", "panasonic", "powershot",
	"coolpix", "cybershot", "digital", "camera", "compact", "zoom",
	"lens", "black", "silver", "battery", "charger", "kit", "mp", "hd",
}

func benchAttrs(i int) []entity.Attribute {
	w := func(j int) string { return benchWords[(i*7+j*13)%len(benchWords)] }
	return attrsText(fmt.Sprintf("%s %s %s %d %s %s", w(0), w(1), w(2), i%97, w(3), w(4)))
}

func benchResolver(b *testing.B, cfg Config, n int) *Resolver {
	r := mustOpen(b, cfg, 1)
	batch := make([][]entity.Attribute, n)
	for i := range batch {
		batch[i] = benchAttrs(i)
	}
	r.InsertBatch(batch)
	return r
}

func benchConfigs() map[string]Config {
	c3g, _ := text.ParseModel("C3G")
	return map[string]Config{
		"knnj-C3G":  {Method: KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 10},
		"eps-C3G":   {Method: EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.5},
		"flat-d300": {Method: FlatKNN, K: 10, Metric: knn.L2Squared},
	}
}

// disableTelemetry nils every metric the resolver records into. All
// metric methods are nil-receiver safe, so this is the disable seam the
// bare benchmark uses to measure the serving path with instrumentation
// compiled in but not recording.
func (r *Resolver) disableTelemetry() {
	*r.tel = gatherTelemetry{shardNS: make([]*metrics.Histogram, len(r.shards))}
	for _, sh := range r.shards {
		*sh.tel = telemetry{}
	}
}

func benchServeQuery(b *testing.B, cfg Config, bare bool) {
	const preload = 2000
	r := benchResolver(b, cfg, preload)
	if bare {
		r.disableTelemetry()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var qn atomic.Int64
	go func() {
		defer close(done)
		next := preload
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Pace writes off the query counter so the mix stays
			// roughly 8 reads : 1 write at any parallelism.
			if qn.Load() < int64(i*8) {
				continue
			}
			id := r.Insert(benchAttrs(next))
			next++
			if i%2 == 0 {
				r.Delete(id - int64(preload/2))
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := benchAttrs(i * 31)
			r.Query(q, QueryOptions{})
			qn.Add(1)
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkServeQuery is the load-generator benchmark of the serving
// path: parallel readers issue top-k queries against the published
// snapshot while one writer goroutine sustains a mixed insert/delete
// stream (one mutation batch per ~8 queries), mimicking an online
// resolver under combined traffic. Reported time is per query, with
// the standard telemetry (latency histograms, pool counters) recording.
func BenchmarkServeQuery(b *testing.B) {
	for name, cfg := range benchConfigs() {
		b.Run(name, func(b *testing.B) { benchServeQuery(b, cfg, false) })
	}
}

// BenchmarkServeQueryBare is the identical workload with every metric
// nilled out — the baseline that prices the observability layer. Compare
// with BenchmarkServeQuery (make bench-obs); the instrumented run should
// stay within ~5% of this one.
func BenchmarkServeQueryBare(b *testing.B) {
	for name, cfg := range benchConfigs() {
		b.Run(name, func(b *testing.B) { benchServeQuery(b, cfg, true) })
	}
}

// BenchmarkServeInsert measures the write path alone: one entity insert
// including the epoch publish (freeze + pointer swap).
func BenchmarkServeInsert(b *testing.B) {
	c3g, _ := text.ParseModel("C3G")
	cfg := Config{Method: KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 10}
	r := benchResolver(b, cfg, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(benchAttrs(2000 + i))
	}
}

// BenchmarkStoreInsert is the durable counterpart of BenchmarkServeInsert:
// the same insert through the WAL on a real file system, fsynced before
// the ack. The sequential case pays one fsync per insert; the parallel
// case shows group commit amortizing the fsync across writers.
func BenchmarkStoreInsert(b *testing.B) {
	c3g, _ := text.ParseModel("C3G")
	cfg := Config{Method: KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 10}
	open := func(b *testing.B) *Store {
		b.Helper()
		s, err := OpenStore(b.TempDir(), cfg, 1, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		batch := make([][]entity.Attribute, 2000)
		for i := range batch {
			batch[i] = benchAttrs(i)
		}
		if _, err := s.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("sequential", func(b *testing.B) {
		s := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Insert(benchAttrs(2000 + i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Stats().PerShard[0].WAL.Syncs)/float64(b.N), "fsyncs/op")
	})
	b.Run("parallel", func(b *testing.B) {
		s := open(b)
		var n atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(n.Add(1))
				if _, err := s.Insert(benchAttrs(2000 + i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(s.Stats().PerShard[0].WAL.Syncs)/float64(b.N), "fsyncs/op")
	})
}

// BenchmarkVocabEncodeAfterFreeze prices the first Encode after a publish
// at |V| = 17 468 (the C3G dictionary of the repository benchmark's
// knnj_point corpus): with no unseen token it is 40 map reads; with one,
// copy-on-write clones the whole dictionary first — the O(|V|) term every
// publish re-arms, which ROADMAP's O(delta)-publish item has to remove.
func BenchmarkVocabEncodeAfterFreeze(b *testing.B) {
	const size, perEntity = 17468, 40
	for _, novel := range []bool{false, true} {
		b.Run(fmt.Sprintf("new-token=%v", novel), func(b *testing.B) {
			v := NewVocab()
			toks := make([]string, size)
			for i := range toks {
				toks[i] = fmt.Sprintf("g%05d", i)
			}
			v.Encode(toks)
			entity := append([]string(nil), toks[:perEntity]...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if novel {
					entity[0] = fmt.Sprintf("n%07d", i)
				}
				v.Frozen()
				v.Encode(entity)
			}
		})
	}
}
