package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// lsmExperiment benchmarks the on-disk segment tier against the
// all-in-memory resolver it shadows: the same workload runs through
// both, the disk resolver holding only -lsm-cap entities in its
// memtable while the bulk lives in mmap'd segment files. Reports ingest
// wall time, query p50, and the Go-heap footprint of each index after a
// full GC — the tier's segments are file-backed pages outside the heap,
// so the heap column is exactly the RAM the index pins — plus the
// tier's live-segment count and on-disk bytes. Every query's answers
// are compared byte-for-byte; any divergence fails the run.
func lsmExperiment(out io.Writer, entities, queries, memCap, fanin int) error {
	if memCap < 1 {
		return fmt.Errorf("-lsm-cap must be >= 1, got %d", memCap)
	}
	if entities < 4*memCap {
		return fmt.Errorf("-lsm-entities (%d) must be >= 4x -lsm-cap (%d) so most of the collection lives on disk", entities, memCap)
	}
	if queries < 1 {
		return fmt.Errorf("-lsm-queries must be >= 1, got %d", queries)
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
	const batch = 1000
	ingest := func(r interface {
		InsertBatch([][]entity.Attribute) []int64
	}) time.Duration {
		begin := time.Now()
		for lo := 0; lo < entities; lo += batch {
			hi := lo + batch
			if hi > entities {
				hi = entities
			}
			chunk := make([][]entity.Attribute, hi-lo)
			for i := range chunk {
				chunk[i] = attrsFor(lo + i)
			}
			r.InsertBatch(chunk)
		}
		return time.Since(begin)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	dir, err := os.MkdirTemp("", "erbench-lsm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(out, "on-disk LSM tier: %d entities, memtable cap %d (%.1fx beyond), merge fanin %d, method=knnj k=10 model=C3G\n\n",
		entities, memCap, float64(entities)/float64(memCap), fanin)

	base := heap()
	mem := memResolver(cfg, 1)
	memIngest := ingest(mem)
	memHeap := heap() - base

	dcfg := cfg
	dcfg.Storage = online.StorageDisk
	dcfg.SegmentDir = dir
	dcfg.MemtableCap = memCap
	dcfg.MergeFanin = fanin
	disk, err := online.Open(dcfg, 1)
	if err != nil {
		return err
	}
	defer disk.Close()
	base = heap()
	diskIngest := ingest(disk)
	diskHeap := heap() - base

	probe := func(q int) []entity.Attribute { return attrsFor(q * 31) }
	p50 := func(r *online.Resolver) (time.Duration, [][]online.Candidate) {
		lat := make([]time.Duration, queries)
		ans := make([][]online.Candidate, queries)
		for q := 0; q < queries; q++ {
			begin := time.Now()
			ans[q] = r.Query(probe(q), online.QueryOptions{})
			lat[q] = time.Since(begin)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[queries/2], ans
	}
	memP50, memAns := p50(mem)
	diskP50, diskAns := p50(disk)

	for q := range memAns {
		w, _ := json.Marshal(memAns[q])
		g, _ := json.Marshal(diskAns[q])
		if !bytes.Equal(w, g) {
			return fmt.Errorf("query %d diverged:\nmemory: %s\ndisk:   %s", q, w, g)
		}
	}

	st := disk.Stats().PerShard[0]
	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	fmt.Fprintf(out, "%8s  %12s  %12s  %12s  %10s  %12s\n",
		"storage", "ingest", "query p50", "index heap", "segments", "disk bytes")
	fmt.Fprintf(out, "%8s  %12s  %12s  %9.1f MiB  %10s  %12s\n",
		"memory", memIngest.Round(time.Millisecond), round(memP50), mib(memHeap), "-", "-")
	fmt.Fprintf(out, "%8s  %12s  %12s  %9.1f MiB  %10d  %8.1f MiB\n",
		"disk", diskIngest.Round(time.Millisecond), round(diskP50), mib(diskHeap), st.Segments, mib(uint64(st.DiskBytes)))
	fmt.Fprintf(out, "\nanswers: %d/%d queries byte-identical across both resolvers\n", queries, queries)
	return nil
}
