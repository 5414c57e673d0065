package online

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

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
// resets the in-memory index to empty. Callers hold r.mu. The segment is
// written from what the memtable holds, nothing re-derived: the live
// slots in id order are its slots, with their records' attributes, and
// its token sets are the index's posting lists over the vocabulary
// (invertLocked) or its vectors the dense rows. An empty memtable still
// commits a manifest round — that ratchets the id watermark and persists
// any tier tombstones accumulated since the last flush (the durable
// store's checkpoint path relies on both). On error the memtable is left
// intact, so a durable caller can retry the flush while the WAL still
// covers every buffered entity.
func (r *shard) flushLocked() error {
	if r.tier == nil {
		return nil
	}
	m := r.mem()
	if m.Len() == 0 {
		return r.tier.Flush(nil, segment.Inverted{}, r.nextID)
	}
	order := make([]int32, 0, m.Len()) // segment slot → memtable slot
	for slot := range int32(m.Slots()) {
		if m.Live(slot) {
			order = append(order, slot)
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(m.ID(a), m.ID(b)) })
	ents := make([]segment.Entry, len(order))
	for i, slot := range order {
		ents[i] = segment.Entry{ID: m.ID(slot), Attrs: r.recs.attrs(r.recs.locs[slot])}
		if r.kn != nil {
			ents[i].Vec = r.kn.Row(slot)
		}
	}
	var inv segment.Inverted
	if r.sp != nil {
		inv = r.invertLocked(order)
	}
	if err := r.tier.Flush(ents, inv, r.nextID); err != nil {
		return err
	}
	r.newMemtable() // and with it a new arena
	return nil
}

// invertLocked reads the memtable's token sets back in the inverted form
// a segment stores, segment slot i being memtable slot order[i]. Dead
// slots drop out, and with them every token no live set holds. A posting
// list is sorted after the remap, as the memtable's slot order need not
// be its id order (a batch's ids arrive in any order, and so do a
// sharded WAL's); the surviving tokens are ordered by their dictionary
// bytes, compared in place. Callers hold r.mu.
func (r *shard) invertLocked(order []int32) segment.Inverted {
	at := make([]int32, r.sp.Slots()) // memtable slot → segment slot + 1, 0 when dead
	inv := segment.Inverted{Sizes: make([]uint32, len(order))}
	total := 0
	for i, slot := range order {
		at[slot] = int32(i) + 1
		inv.Sizes[i] = uint32(r.sp.Size(slot))
		total += r.sp.Size(slot)
	}
	posts := make([]uint32, 0, total) // every live posting: its subslices stay put
	type run struct {
		tok   uint32
		posts []uint32
	}
	var runs []run
	for tok := range uint32(r.vocab.Len()) {
		lo := len(posts)
		r.sp.Postings(int32(tok), func(slot int32) {
			if to := at[slot]; to > 0 {
				posts = append(posts, uint32(to-1))
			}
		})
		if len(posts) == lo {
			continue
		}
		slices.Sort(posts[lo:])
		runs = append(runs, run{tok, posts[lo:len(posts):len(posts)]})
	}
	slices.SortFunc(runs, func(a, b run) int { return bytes.Compare(r.vocab.Key(a.tok), r.vocab.Key(b.tok)) })
	inv.Toks = make([][]byte, len(runs))
	inv.Posts = make([][]uint32, len(runs))
	for t, ru := range runs {
		inv.Toks[t], inv.Posts[t] = r.vocab.Key(ru.tok), ru.posts
	}
	return inv
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
// merge fan-in) always come from the caller.
func openDiskShard(cfg Config, words *vector.Table, fsys faultfs.FS, dir string) (*shard, error) {
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
	return newShard(cfg, words, t), nil
}
