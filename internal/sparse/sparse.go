// Package sparse implements the sparse vector-based NN methods of Section
// IV-C: set-based similarity joins over token sets. It provides the three
// normalized set similarity measures (Cosine, Dice, Jaccard), a ScanCount
// inverted index suited to the low similarity thresholds of ER, the range
// join (ε-Join) and the k-nearest-neighbor join (kNN-Join) with the
// distinct-similarity-value tie semantics of the paper.
package sparse

import (
	"math"

	"erfilter/internal/hit"
	"erfilter/internal/parallel"
	"erfilter/internal/slots"
	"erfilter/internal/text"
)

// Measure is a normalized set similarity measure over token sets.
type Measure int

// The similarity measures of Section IV-C.
const (
	// Cosine is |A∩B| / sqrt(|A|·|B|).
	Cosine Measure = iota
	// Dice is 2·|A∩B| / (|A|+|B|).
	Dice
	// Jaccard is |A∩B| / |A∪B|.
	Jaccard
)

// Measures lists all similarity measures.
func Measures() []Measure { return []Measure{Cosine, Dice, Jaccard} }

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case Cosine:
		return "Cosine"
	case Dice:
		return "Dice"
	case Jaccard:
		return "Jaccard"
	}
	return "unknown"
}

// Sim computes the similarity from an overlap count and the two set sizes.
// It returns 0 when either set is empty.
func (m Measure) Sim(overlap, sizeA, sizeB int) float64 {
	if sizeA == 0 || sizeB == 0 || overlap == 0 {
		return 0
	}
	o := float64(overlap)
	a, b := float64(sizeA), float64(sizeB)
	switch m {
	case Cosine:
		return o / math.Sqrt(a*b)
	case Dice:
		return 2 * o / (a + b)
	case Jaccard:
		return o / (a + b - o)
	}
	return 0
}

// Corpus holds the dictionary-encoded token sets of the two collections of
// a Clean-Clean ER task. Token ids are shared across both collections so
// overlaps can be counted directly.
type Corpus struct {
	// Sets1 and Sets2 hold the token-id set of every entity. Multiset
	// models are already expanded to counter tokens, so each slice is a
	// set of distinct ids.
	Sets1, Sets2 [][]int32
	// NumTokens is the dictionary size.
	NumTokens int
}

// BuildCorpus tokenizes both collections under the representation model and
// encodes the tokens with a shared dictionary, in which a token's id is
// the number of distinct tokens before its first occurrence (texts1, then
// texts2, in order).
//
// Contiguous chunks of the texts are tokenised and encoded on GOMAXPROCS
// workers, each under a dictionary of its own whose ids are also numbered
// by first occurrence. Merging the chunk dictionaries in chunk order
// therefore meets every token first where the serial loop did and gives it
// the serial id; the first chunk's ids already are those. The workers then
// rewrite their chunk's sets to the merged ids. Keys are the tokens as the
// model returns them, not clones: the dictionaries die when BuildCorpus
// returns.
func BuildCorpus(texts1, texts2 []string, model text.Model) *Corpus {
	n1 := len(texts1)
	sets := make([][]int32, n1+len(texts2))
	type chunk struct {
		lo, hi int
		ids    map[string]int32
		toks   []string // by local id
		global []int32  // local id → merged id; nil for the first chunk
	}
	chunks := parallel.Ranges(len(sets), func(lo, hi int) chunk {
		c := chunk{lo: lo, hi: hi, ids: map[string]int32{}}
		for i := lo; i < hi; i++ {
			var toks []string
			if i < n1 {
				toks = model.Tokens(texts1[i])
			} else {
				toks = model.Tokens(texts2[i-n1])
			}
			set := make([]int32, 0, len(toks))
			for _, tok := range toks {
				id, ok := c.ids[tok]
				if !ok {
					id = int32(len(c.toks))
					c.ids[tok] = id
					c.toks = append(c.toks, tok)
				}
				set = append(set, id)
			}
			sets[i] = set
		}
		return c
	})
	var dict map[string]int32
	for ci := range chunks {
		c := &chunks[ci]
		if ci == 0 {
			dict = c.ids
			continue
		}
		c.global = make([]int32, len(c.toks))
		for local, tok := range c.toks {
			id, ok := dict[tok]
			if !ok {
				id = int32(len(dict))
				dict[tok] = id
			}
			c.global[local] = id
		}
	}
	parallel.Ranges(len(chunks), func(lo, hi int) struct{} {
		for _, c := range chunks[lo:hi] {
			if c.global == nil {
				continue
			}
			for _, set := range sets[c.lo:c.hi] {
				for j, id := range set {
					set[j] = c.global[id]
				}
			}
		}
		return struct{}{}
	})
	return &Corpus{Sets1: sets[:n1:n1], Sets2: sets[n1:], NumTokens: len(dict)}
}

// Index is a ScanCount inverted index over token sets. For a query set
// it merge-counts the posting lists of the query's tokens, yielding the
// overlap with every indexed set that shares at least one token.
// ScanCount is the ε-Join algorithm of choice for the low similarity
// thresholds typical of ER (Section IV-C).
//
// Every set has a slot, and the embedded view names each slot's id and
// whether it is live. NewIndex builds the batch case: every slot live,
// id = slot, its position in the indexed collection. IncIndex.Freeze
// publishes the incremental case, a point-in-time snapshot whose
// tombstoned slots are never candidates. Either way the same probes
// answer, by id, over the live sets; Len counts them.
//
// An Index is immutable: a query keeps its state in a Scratch the caller
// owns, so any number of goroutines may query one Index at once, each
// with its own Scratch.
type Index struct {
	slots.View
	postings slots.Pages[[]uint16] // token id → posting list of the slots holding it
	sizes    []int32               // slot → token-set size
}

// escape opens a two-entry marker in a posting list; see post.
const escape = 0xFFFF

// post appends slot to a posting list and returns the list. A posting
// list holds the ascending slots of the sets that hold one token, each
// as its low 16 bits within its block of 2^16 slots. A list starts in
// block 0, and *block is the block of its last slot:
//
//   - the pair escape, b switches the list to block b, which is at most
//     32 767 for an int32 slot and so never reads as escape;
//   - the pair escape, escape is a slot whose low half is escape.
//
// A list that never leaves block 0 — any index under 65 535 slots —
// holds no escape and takes 2 bytes a posting. The scan decodes by
// block, slot = base | low, never by gap: a prefix sum in the probe
// loop measured slower than the int32 lists it replaced.
func post(list []uint16, block *uint16, slot int32) []uint16 {
	if b := uint16(slot >> 16); b != *block {
		list = append(list, escape, b)
		*block = b
	}
	if list = append(list, uint16(slot)); uint16(slot) == escape {
		list = append(list, escape)
	}
	return list
}

// NewIndex builds a ScanCount index over the given token sets, each
// live under its position.
func NewIndex(sets [][]int32, numTokens int) *Index {
	var postings slots.Paged[[]uint16]
	postings.Grow(numTokens)
	blocks := make([]uint16, numTokens)
	sizes := make([]int32, len(sets))
	for e, set := range sets {
		sizes[e] = int32(len(set))
		for _, tok := range set {
			list := postings.Ref(int(tok))
			*list = post(*list, &blocks[tok], int32(e))
		}
	}
	return &Index{View: slots.All(len(sets)), postings: postings.Pages, sizes: sizes}
}

// Size returns the token-set size of slot e.
func (idx *Index) Size(e int32) int { return int(idx.sizes[e]) }

// scan merge-counts the posting lists of the query's tokens: it leaves in
// sc the overlap of every slot, live or not, with the query, so Found
// names those sharing at least one token. A token the postings do not
// cover (unseen when the index was built) matches nothing.
func (idx *Index) scan(query []int32, sc *Scratch) {
	sc.Begin(idx.Slots())
	for _, tok := range query {
		if int(tok) < idx.postings.Len() {
			sc.touch(idx.postings.At(int(tok)))
		}
	}
}

// Overlaps merge-counts the posting lists of the query set and invokes
// fn(slot, overlap) for every live slot sharing at least one token, in
// ascending slot order. A warm Scratch makes repeated queries
// allocation-free.
func (idx *Index) Overlaps(query []int32, sc *Scratch, fn func(e int32, overlap int)) {
	idx.scan(query, sc)
	sc.Each(func(e int32, overlap int) {
		if idx.Live(e) {
			fn(e, overlap)
		}
	})
}

// RangeQuery returns the live sets whose similarity to the query set is
// at least eps, by id, in the canonical hit order.
func (idx *Index) RangeQuery(query []int32, m Measure, eps float64, sc *Scratch) []hit.Hit {
	var out []hit.Hit
	qs := len(query)
	idx.scan(query, sc)
	sc.Each(func(e int32, overlap int) {
		if !idx.Live(e) {
			return
		}
		if sim := m.Sim(overlap, qs, int(idx.sizes[e])); sim >= eps {
			out = append(out, hit.Hit{ID: idx.ID(e), Score: sim})
		}
	})
	hit.Sort(out)
	return out
}

// KNNQuery returns the live sets having the k highest *distinct*
// similarity values to the query, i.e. more than k sets are returned
// when some are equidistant from the query, per the paper's kNN-Join
// semantics, by id, in the canonical hit order. Sets with zero
// similarity are never returned. Only the sets that reach KNNFloor, not
// everything sharing a token, are collected and sorted (Scratch.KNNCut).
func (idx *Index) KNNQuery(query []int32, m Measure, k int, sc *Scratch) []hit.Hit {
	if k <= 0 {
		return nil
	}
	qs := len(query)
	idx.scan(query, sc)
	sims := sc.Sims[:0] // sims[i] is the similarity of Found()[i]
	for _, e := range sc.Found() {
		sim := 0.0 // a tombstoned slot is no candidate
		if idx.Live(e) {
			sim = m.Sim(sc.Overlap(e), qs, int(idx.sizes[e]))
		}
		sims = append(sims, sim)
	}
	sc.Sims = sims
	return sc.KNNCut(k, idx.ID)
}
