package online

import (
	"bytes"
	"fmt"
	"sort"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
	"erfilter/internal/segment"
	"erfilter/internal/vector"
)

// This file wires the on-disk segment tier (internal/segment) behind a
// shard: the constructor that opens a disk-backed shard, the memtable
// flush that drains the in-memory index into a new segment, and the
// config codec pinned into the tier manifest so a reopened directory
// always serves the configuration it was built under.

// cfgMetaMagic versions the config blob stored as tier manifest meta.
const cfgMetaMagic = "ERCFG\x01\n"

// encodeConfigMeta serializes the filter-semantic Config fields (the
// same set a snapshot header records) as a sealed frame stream of its
// own — magic, fields, trailer — for pinning into the segment tier's
// manifest. It fails only on a BestAttribute no reader would take back.
func encodeConfigMeta(c Config) ([]byte, error) {
	w := frame.Buffer(64)
	w.Magic(cfgMetaMagic)
	writeConfig(w, c)
	err := w.Trailer()
	return w.Buf(), err
}

// decodeConfigMeta mirrors encodeConfigMeta and fully validates the
// result, so a tampered manifest meta fails loudly at open.
func decodeConfigMeta(data []byte) (Config, error) {
	src := bytes.NewReader(data)
	br := frame.NewReader(src)
	br.Magic(cfgMetaMagic)
	c := readConfig(br)
	if br.CheckTrailer(); br.Err() != nil {
		return Config{}, fmt.Errorf("online: tier meta: %w", br.Err())
	}
	if src.Len() != 0 {
		return Config{}, fmt.Errorf("online: tier meta has %d trailing bytes", src.Len())
	}
	if err := validateConfig(c); err != nil {
		return Config{}, err
	}
	return c, nil
}

// flushLocked drains the memtable into a new immutable segment and
// resets the in-memory index to empty. Callers hold r.mu. An empty
// memtable still commits a manifest round — that ratchets the id
// watermark and persists any tier tombstones accumulated since the
// last flush (the durable store's checkpoint path relies on both).
// On error the memtable is left intact, so a durable caller can retry
// the flush while the WAL still covers every buffered entity.
func (r *shard) flushLocked() error {
	if r.tier == nil {
		return nil
	}
	if len(r.attrs) == 0 {
		return r.tier.Flush(nil, r.nextID)
	}
	ids := make([]int64, 0, len(r.attrs))
	for id := range r.attrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Segments are vocabulary-free, so the memtable's token ids are no use
	// to them: the resident entities go through prepare again.
	ents := make([]segment.Entry, len(ids))
	for i, p := range r.prepareAll(ids, func(i int) []entity.Attribute { return r.attrs[ids[i]] }, false) {
		ents[i] = segment.Entry{ID: p.id, Attrs: p.attrs, Tokens: p.toks, Vec: p.vec}
	}
	if err := r.tier.Flush(ents, r.nextID); err != nil {
		return err
	}
	r.attrs = make(map[int64][]entity.Attribute)
	r.newMemtable()
	return nil
}

// flush forces the memtable to a new segment and publishes the result;
// a no-op under StorageMemory.
func (r *shard) flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.flushLocked(); err != nil {
		return err
	}
	r.publishLocked()
	return nil
}

// openDiskShard opens a disk-backed shard over an explicit filesystem
// and tier directory (nil selects the real OS; the durable store and
// the crash tests inject theirs). When dir already holds a tier, the
// configuration pinned in its manifest wins over the caller's semantic
// fields — reopening a directory under a drifted config would silently
// change every stored score. Deployment-shape fields (memtable cap,
// merge fan-in) always come from the caller. autoFlush drains the
// memtable whenever it crosses cfg.MemtableCap; the durable store
// passes false and drives flushes itself.
func openDiskShard(cfg Config, words *vector.Table, fsys faultfs.FS, dir string, autoFlush bool) (*shard, error) {
	meta, err := segment.ReadMeta(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("online: reading tier manifest: %w", err)
	}
	if len(meta) > 0 {
		stored, err := decodeConfigMeta(meta)
		if err != nil {
			return nil, err
		}
		stored.Storage = StorageDisk
		stored.SegmentDir = cfg.SegmentDir
		stored.MemtableCap = cfg.MemtableCap
		stored.MergeFanin = cfg.MergeFanin
		stored.segSyncMerge = cfg.segSyncMerge
		cfg = stored.normalize()
	}
	pinned, err := encodeConfigMeta(cfg)
	if err != nil {
		return nil, fmt.Errorf("online: pinning the configuration: %w", err)
	}
	kind, dim := segment.KindSparse, 0
	if cfg.Method == FlatKNN {
		kind, dim = segment.KindDense, cfg.Dim
	}
	t, err := segment.Open(segment.Options{
		FS:         fsys,
		Dir:        dir,
		Kind:       kind,
		Dim:        dim,
		Measure:    cfg.Measure,
		Metric:     cfg.Metric,
		MergeFanin: cfg.MergeFanin,
		Meta:       pinned,
		SyncMerge:  cfg.segSyncMerge,
	})
	if err != nil {
		return nil, err
	}
	return newShard(cfg, words, t, autoFlush), nil
}
