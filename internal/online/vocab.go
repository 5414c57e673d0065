package online

import "erfilter/internal/dict"

// Vocab is the grow-only token dictionary of a sparse online resolver.
// Unlike the throwaway dictionary inside sparse.BuildCorpus, it survives
// across inserts and is shared with every published snapshot without a
// copy: it is a dict.Dict, whose Frozen view a snapshot reads up to its
// own length while the writer appends beyond it. About 15 B a token,
// where a map[string]int32 with cloned keys held 53
// (TestVocabBytesPerToken).
type Vocab struct{ dict.Dict }

// vocabView is the dictionary as one snapshot sees it.
type vocabView = dict.View

// NewVocab returns an empty dictionary.
func NewVocab() *Vocab { return &Vocab{} }

// Encode maps the tokens to ids, assigning fresh ids to unseen tokens.
// Writer-side only; not safe for concurrent use. A new token's bytes are
// copied into the arena: tokens are windows of their entity's text,
// which the vocabulary would otherwise keep reachable after the entity
// is deleted.
func (v *Vocab) Encode(toks []string) []int32 {
	out := make([]int32, 0, len(toks))
	for _, tok := range toks {
		id, _ := v.Put(tok)
		out = append(out, int32(id))
	}
	return out
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
func encodeFrozen(d *vocabView, toks []string) []int32 {
	out := make([]int32, len(toks))
	unseen := int32(d.Len())
	for i, tok := range toks {
		if id := d.Find(tok); id >= 0 {
			out[i] = id
		} else {
			out[i] = unseen
		}
	}
	return out
}
