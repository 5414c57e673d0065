package online

import "strings"

// Vocab is the grow-only token dictionary of a sparse online resolver.
// Unlike the throwaway dictionary inside sparse.BuildCorpus, it survives
// across inserts and supports freezing: Frozen returns the current
// token→id map for inclusion in an immutable snapshot, after which the
// writer clones the map once before its next insertion (copy-on-write).
//
// The clone cost is proportional to the vocabulary, but it is only paid
// when an insert actually introduces unseen tokens after a freeze;
// character n-gram vocabularies saturate quickly, so steady-state ingest
// freezes for free.
type Vocab struct {
	dict   map[string]int32
	shared bool
}

// NewVocab returns an empty dictionary.
func NewVocab() *Vocab {
	return &Vocab{dict: make(map[string]int32)}
}

// Len returns the number of distinct tokens assigned so far.
func (v *Vocab) Len() int { return len(v.dict) }

// Encode maps the tokens to ids, assigning fresh ids to unseen tokens.
// Writer-side only; not safe for concurrent use. A new key is a copy:
// tokens are windows of their entity's text, which the vocabulary would
// otherwise keep reachable after the entity is deleted.
func (v *Vocab) Encode(toks []string) []int32 {
	out := make([]int32, 0, len(toks))
	for _, tok := range toks {
		id, ok := v.dict[tok]
		if !ok {
			if v.shared {
				clone := make(map[string]int32, len(v.dict)+1)
				for k, val := range v.dict {
					clone[k] = val
				}
				v.dict = clone
				v.shared = false
			}
			id = int32(len(v.dict))
			v.dict[strings.Clone(tok)] = id
		}
		out = append(out, id)
	}
	return out
}

// Frozen returns the current dictionary as an immutable map for a
// snapshot and marks it shared: the next Encode that needs a new token
// works on a private clone, so snapshot holders never observe a write.
func (v *Vocab) Frozen() map[string]int32 {
	v.shared = true
	return v.dict
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
// survives in the dictionary after a Save/Load replay.
func encodeFrozen(dict map[string]int32, toks []string) []int32 {
	out := make([]int32, len(toks))
	unseen := int32(len(dict))
	for i, tok := range toks {
		if id, ok := dict[tok]; ok {
			out[i] = id
		} else {
			out[i] = unseen
		}
	}
	return out
}
