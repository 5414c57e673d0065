package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// serveExperiment benchmarks the online serving path across shard
// counts: parallel single-entity insert throughput (each insert pays
// its shard's epoch publish) and scatter-gather query throughput on the
// loaded collection, with the resulting shard size skew. Doubles the
// shard count from 1 up to maxShards so the scaling curve is visible in
// one table.
// memResolver opens an in-memory resolver for an experiment; memory
// storage opens no files, so Open has no error to report.
func memResolver(cfg online.Config, shards int) *online.Resolver {
	res, _ := online.Open(cfg, shards)
	return res
}

func serveExperiment(out io.Writer, maxShards, entities, queries int) error {
	if maxShards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", maxShards)
	}
	c3g, err := text.ParseModel("C3G")
	if err != nil {
		return err
	}
	cfg := online.Config{Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 10, Clean: true}
	workers := runtime.NumCPU()

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

	fmt.Fprintf(out, "online serving: %d parallel writers/readers, %d inserts, %d queries, method=knnj k=10 model=C3G\n\n",
		workers, entities, queries)
	fmt.Fprintf(out, "%8s  %14s  %14s  %8s\n", "shards", "inserts/s", "queries/s", "skew")

	var base float64
	for shards := 1; shards <= maxShards; shards *= 2 {
		sr := memResolver(cfg, shards)

		begin := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(entities) {
						return
					}
					sr.Insert(attrsFor(int(i)))
				}
			}()
		}
		wg.Wait()
		insPerSec := float64(entities) / time.Since(begin).Seconds()

		begin = time.Now()
		var qn atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := qn.Add(1) - 1
					if i >= int64(queries) {
						return
					}
					sr.Query(attrsFor(int(i)*31), online.QueryOptions{})
				}
			}()
		}
		wg.Wait()
		qPerSec := float64(queries) / time.Since(begin).Seconds()

		st := sr.Stats()
		if shards == 1 {
			base = insPerSec
			fmt.Fprintf(out, "%8d  %14.0f  %14.0f  %8.2f\n", shards, insPerSec, qPerSec, st.SizeSkew)
		} else {
			fmt.Fprintf(out, "%8d  %14.0f  %14.0f  %8.2f  (%.2fx insert vs 1 shard)\n",
				shards, insPerSec, qPerSec, st.SizeSkew, insPerSec/base)
		}
	}
	return nil
}
