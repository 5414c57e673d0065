package online

import (
	"hash/maphash"
	"slices"
	"sync/atomic"
)

// Vocab is the grow-only token dictionary of a sparse online resolver.
// Unlike the throwaway dictionary inside sparse.BuildCorpus, it survives
// across inserts and is shared with every published snapshot without a
// copy: a token's id is the number of tokens before it, its bytes are
// appended to one arena, and an open-addressed table of uint32 ids finds
// it. Nothing is rewritten in place but an empty table slot, which takes
// an id with an atomic store; a snapshot reads up to its frozen length
// (Frozen) while the writer appends beyond it. About 15 B a token, where
// a map[string]int32 with cloned keys held 53 (TestVocabBytesPerToken).
type Vocab struct{ vocabView }

// vocabSeed hashes every Vocab of the process alike, so two built by the
// same Encodes are equal.
var vocabSeed = maphash.MakeSeed()

// NewVocab returns an empty dictionary.
func NewVocab() *Vocab { return &Vocab{} }

// Len returns the number of distinct tokens assigned so far.
func (v *Vocab) Len() int { return len(v.ends) }

// Encode maps the tokens to ids, assigning fresh ids to unseen tokens.
// Writer-side only; not safe for concurrent use. A new token's bytes are
// copied into the arena: tokens are windows of their entity's text,
// which the vocabulary would otherwise keep reachable after the entity
// is deleted.
func (v *Vocab) Encode(toks []string) []int32 {
	out := make([]int32, 0, len(toks))
	for _, tok := range toks {
		id, slot := v.find(tok)
		if id < 0 {
			if 4*(len(v.ends)+1) > 3*len(v.table) {
				v.grow()
				_, slot = v.find(tok)
			}
			id = int32(len(v.ends))
			v.text = append(v.text, tok...)
			v.ends = append(v.ends, uint32(len(v.text)))
			v.table[slot].Store(uint32(id) + 1)
		}
		out = append(out, id)
	}
	return out
}

// grow rehashes every token into a table twice the size. The old table
// stays as it is for the snapshots that hold it: they never see a token
// added after it was replaced, and at least a quarter of its slots stay
// empty, so every probe of it ends.
func (v *Vocab) grow() {
	table := make([]atomic.Uint32, max(64, 2*len(v.table)))
	mask := uint64(len(table) - 1)
	for id := range uint32(len(v.ends)) {
		start, end := v.span(id)
		i := maphash.Bytes(vocabSeed, v.text[start:end]) & mask
		for table[i].Load() != 0 {
			i = (i + 1) & mask
		}
		table[i].Store(id + 1)
	}
	v.table = table
}

// Frozen returns the dictionary as it is now, for an immutable snapshot.
// It copies nothing: the snapshot shares the table and the arena, and
// the writer only appends beyond what it records.
func (v *Vocab) Frozen() vocabView {
	return vocabView{table: v.table, ends: slices.Clip(v.ends), text: slices.Clip(v.text)}
}

// vocabView is the dictionary up to one length: the ids below len(ends).
// A Vocab's own view is all of it; Frozen's stays as it was.
type vocabView struct {
	table []atomic.Uint32 // open-addressed, a power of two: id+1, 0 empty
	ends  []uint32        // id → end of the token's bytes in text
	text  []byte          // every token's bytes, in id order
}

// span returns where the bytes of an id below len(d.ends) lie in text.
func (d *vocabView) span(id uint32) (start, end uint32) {
	if id > 0 {
		start = d.ends[id-1]
	}
	return start, d.ends[id]
}

// find returns tok's id, or -1 and the empty table slot where it would
// go. A slot holding an id the snapshot does not cover is some later
// token's, or tok's own, which the snapshot must not see: either way the
// probe goes on, and ends at an empty slot.
func (d *vocabView) find(tok string) (int32, int) {
	if len(d.table) == 0 {
		return -1, 0
	}
	n, mask := uint32(len(d.ends)), uint64(len(d.table)-1)
	for i := maphash.String(vocabSeed, tok) & mask; ; i = (i + 1) & mask {
		e := d.table[i].Load()
		if e == 0 {
			return -1, int(i)
		}
		if e <= n {
			if start, end := d.span(e - 1); string(d.text[start:end]) == tok {
				return int32(e - 1), int(i)
			}
		}
	}
}

// encodeFrozen maps query tokens through a frozen dictionary. A token
// absent from the dictionary cannot overlap with anything indexed, but it
// still counts toward the query-set size every similarity measure
// normalizes by, so it is encoded as a sentinel id just past the frozen
// vocabulary: overlap counting skips ids beyond the posting table, yet
// len(result) equals the full token count. This keeps similarities equal
// to the batch pipeline (sparse.BuildCorpus encodes both collections with
// one shared dictionary, so there qs counts every query token) and makes
// scores independent of vocabulary history — a token introduced only by a
// since-deleted entity contributes size but no overlap whether or not it
// survives in the dictionary after a Save/Load replay. A token the writer
// added after the freeze is absent too.
func encodeFrozen(dict *vocabView, toks []string) []int32 {
	out := make([]int32, len(toks))
	unseen := int32(len(dict.ends))
	for i, tok := range toks {
		if id, _ := dict.find(tok); id >= 0 {
			out[i] = id
		} else {
			out[i] = unseen
		}
	}
	return out
}
