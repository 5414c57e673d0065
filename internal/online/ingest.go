package online

import (
	"errors"
	"fmt"
	"runtime"

	"erfilter/internal/entity"
	"erfilter/internal/frame"
	"erfilter/internal/parallel"
	"erfilter/internal/vector"
	"erfilter/internal/wal"
)

// Every write-side path — an insert of any size, volatile or durable, a
// snapshot Load, a follower's Bootstrap, WAL replay — is the same two
// steps; the memtable flush then writes what they committed, and
// prepares nothing again. prepare is pure: it reads nothing a write
// mutates, so any number of entities prepare at once. commitLocked is
// serial: vocabulary ids, index slots and graph links are a function of
// the order of commits alone, and a batch commits in the order it was
// given, so it leaves the index — every Save byte, every HNSW link, every
// answer — exactly as one insert per entity would.
//
// ingestChunk is the unit ingestLocked overlaps the two steps over. It is
// a constant, not a knob: it bounds the look-ahead (a 10 000-row seed
// never holds more than two chunks of token slices) and is large enough
// that the per-chunk hand-off is noise next to preparing the chunk.
const ingestChunk = 256

// ErrEntityTooLarge is wrapped by every refusal of an entity the
// persisted formats could not hold.
var ErrEntityTooLarge = errors.New("online: entity too large")

// CheckEntity refuses an entity that internal/frame would refuse to
// write — more than frame.MaxAttrs attributes, or a name or value over
// frame.MaxStr bytes. It is the entry check of every acknowledged write:
// what passes can be logged, snapshotted and flushed, so nothing is
// accepted now that a later Save, checkpoint or reopen rejects.
func CheckEntity(attrs []entity.Attribute) error {
	if err := frame.CheckAttrs(attrs); err != nil {
		return fmt.Errorf("%w: %v", ErrEntityTooLarge, err)
	}
	return nil
}

// prepared is one entity after the pure half of a write.
type prepared struct {
	id    int64
	attrs []entity.Attribute // the caller's: read, never retained
	toks  []string           // sparse methods
	vec   vector.Vec         // dense
	rec   []byte             // the WAL insert record, when the write is logged
}

// prepare is the one place the write side turns attributes into what the
// index stores. The dense form is embedded into vec (see vecSlab) by a
// borrowed filling embedder, so the words of every entity ever prepared
// are in the resolver's table.
func (r *shard) prepare(id int64, attrs []entity.Attribute, logged bool, vec vector.Vec) prepared {
	p := prepared{id: id, attrs: attrs}
	txt := r.cfg.TextOf(attrs)
	if r.cfg.Method == FlatKNN {
		emb := r.fill.Get().(*vector.Embedder)
		p.vec = emb.Embed(vec, txt)
		r.fill.Put(emb)
	} else {
		p.toks = r.cfg.Model.Tokens(txt)
	}
	if logged {
		p.rec = encodeInsert(id, attrs)
	}
	return p
}

// vecSlab returns room for n dense vectors, Dim float32 each, or nil for
// a sparse method.
func (r *shard) vecSlab(n int) []float32 {
	if r.cfg.Method != FlatKNN {
		return nil
	}
	return make([]float32, n*r.cfg.Dim)
}

// prepareAll prepares the entities ids[i], batch[i] across GOMAXPROCS
// workers: prepare is pure for every method. Entity i's dense vector is
// the i-th Dim float32 of slab, which holds len(ids) of them (nil for a
// sparse method).
func (r *shard) prepareAll(ids []int64, batch [][]entity.Attribute, logged bool, slab []float32) []prepared {
	dim := r.cfg.Dim
	out, err := parallel.Map(runtime.GOMAXPROCS(0), len(ids), func(i int) (prepared, error) {
		var vec vector.Vec
		if slab != nil {
			vec = slab[i*dim : (i+1)*dim : (i+1)*dim]
		}
		return r.prepare(ids[i], batch[i], logged, vec), nil
	})
	if err != nil {
		panic(err) // only a prepare panic (wrapped *parallel.PanicError) reaches here
	}
	return out
}

// commitLocked indexes a prepared entity under its id and appends its
// attribute record at the slot the index gave it. Callers hold r.mu and
// guarantee the id is unused.
func (r *shard) commitLocked(p *prepared) {
	var err error
	if r.sp != nil {
		err = r.sp.Add(p.id, r.vocab.Encode(p.toks))
	} else {
		err = r.kn.Add(p.id, p.vec)
	}
	if err != nil {
		panic(fmt.Sprintf("online: %v", err))
	}
	r.recs.put(int32(r.mem().Slots()-1), p.attrs)
	r.nextID = max(r.nextID, p.id+1)
	r.inserts++
}

// hasLocked reports whether id is resident: in the memtable, or live in
// the segment tier of a disk-backed shard. Callers hold r.mu.
func (r *shard) hasLocked(id int64) bool {
	return r.mem().Has(id) || r.tier != nil && r.tier.Has(id)
}

// removeLocked is the delete side of commitLocked: it tombstones a
// memtable entity in the index, compacting when the tombstone policy
// triggers, or an entity a flush moved to the segment tier in the tier's
// view (the tombstone reaches the manifest at the next flush or merge,
// always before a WAL record that justifies it is trimmed). It reports
// whether id was resident; callers hold r.mu, and publish, log and count
// toward checkpoints as their path requires.
func (r *shard) removeLocked(id int64) bool {
	if r.mem().Remove(id) {
		r.maybeCompactLocked()
	} else if r.tier == nil || !r.tier.Delete(id) {
		return false
	}
	r.deletes++
	return true
}

// ingestLocked runs a batch through prepare and commit as a two-stage
// pipeline: while chunk i commits, chunk i+1 — and no further — is
// prepared beside it; a batch of one chunk or less, which is every
// online write, spawns nothing. The caller's attribute slices are read
// during the call only — by prepare (text, WAL record) and by
// commitLocked (the arena record) — and retained nowhere, so they are
// garbage once the caller drops them. Commits run in batch order under
// r.mu, which the caller holds throughout. A durable write passes
// its log: each record is staged just before its entity commits, the
// first append error stops the pipeline with exactly the staged entities
// committed, and seq is the last staged record's. A panic in either
// stage is re-raised on the caller. A dense batch embeds its vectors
// into at most two slabs, one for the chunk committing and one for the
// chunk preparing beside it: chunk i+2 reuses chunk i's, whose vectors
// the index has copied into its rows by then. Each slab is allocated for
// the first chunk it holds, so a batch of one chunk or less allocates
// one slab of its own size.
func (r *shard) ingestLocked(ids []int64, batch [][]entity.Attribute, log *wal.WAL) (seq uint64, err error) {
	var slabs [2][]float32
	prep := func(lo int) []prepared {
		hi := min(lo+ingestChunk, len(batch))
		k := lo / ingestChunk % 2
		if slabs[k] == nil {
			slabs[k] = r.vecSlab(hi - lo) // only chunk 0 or 1 can be short, and then it is the last
		}
		return r.prepareAll(ids[lo:hi], batch[lo:hi], log != nil, slabs[k])
	}
	next := prep(0)
	for lo := 0; err == nil && lo < len(batch); lo += ingestChunk {
		cur, stages := next, 1
		if lo+ingestChunk < len(batch) {
			stages = 2 // stage 0 commits cur, stage 1 prepares the chunk after it
		}
		err = parallel.ForEach(stages, stages, func(stage int) (serr error) {
			if stage == 1 {
				next = prep(lo + ingestChunk)
				return nil
			}
			for i := range cur {
				if log != nil {
					if seq, serr = log.AppendBuffered(walInsert, cur[i].rec); serr != nil {
						return serr
					}
				}
				r.commitLocked(&cur[i])
			}
			return nil
		})
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	return seq, err
}
