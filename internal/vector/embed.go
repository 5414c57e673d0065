package vector

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"erfilter/internal/text"
)

// Embedder maps words and whole textual values to dense vectors using a
// deterministic hashed-subword model: the vector of a word is the average
// of pseudo-random unit-variance vectors derived from the hashes of its
// character 3–6-grams (padded with word-boundary markers) plus the whole
// word, exactly fastText's subword scheme with hashing in place of trained
// weights.
//
// This is the documented substitution for the paper's pre-trained fastText
// embeddings: it preserves the properties the benchmark depends on —
// fixed 300-d dense vectors, robustness to out-of-vocabulary and
// misspelled words through shared subwords, insensitivity to word order
// at the tuple level — without shipping a multi-GB external model.
//
// Each gram contributes +1 or −1 per dimension: the top bit of a
// splitmix64 stream seeded with the gram's FNV-1a hash. Word does not add
// those ±1 in float32 one gram at a time; it counts the set bits per
// dimension in int32, four gram streams per pass over the dimensions, and
// converts 2·count − n once. That is the same function, not an
// approximation of it: a sum of n values ±1 is an integer of magnitude at
// most n, every such integer below 2^24 is exact in float32, and so is
// every partial sum on the way, so the float32 loop and the integer count
// agree bit for bit for any word of fewer than 2^24 grams (a four-million
// rune word) — the test suite holds Word to that loop.
//
// An Embedder is not safe for concurrent use — Word reuses the scratch
// buffers — but any number of embedders share one Table.
type Embedder struct {
	dim  int
	tab  *Table
	fill bool // a filling embedder stores the words it misses, a reading one never does
	// Word's scratch: rune start offsets of the padded word, one stream
	// seed per gram, one bit count per dimension.
	offs  []int
	seeds []uint64
	cnt   []int32
}

// Table is the word → vector map every embedder of one collection shares,
// the stand-in for the paper's one read-only fastText model. Filling
// embedders (the write side) add the words they miss, so it holds the
// vocabulary ever indexed and nothing else; reading embedders (queries)
// compute a missed word and leave the table alone — a query's typo is
// not vocabulary. A vector is a pure function of (word, dimension), so a racing
// duplicate fill stores the same bits. The zero Table is ready to use and
// fixes no dimension: whoever opens a collection makes the table before
// the configuration pinned on disk is read, so the embedders carry the
// dimension and an entry of another length is a miss.
type Table struct {
	words sync.Map // string → Vec
	n     atomic.Int64
}

// Len is the number of words in the table.
func (t *Table) Len() int { return int(t.n.Load()) }

// Filler returns an embedder that stores the words it misses in t.
func (t *Table) Filler(dim int) *Embedder {
	return &Embedder{dim: dim, tab: t, fill: true, cnt: make([]int32, dim)}
}

// Reader returns an embedder that only reads t.
func (t *Table) Reader(dim int) *Embedder {
	return &Embedder{dim: dim, tab: t, cnt: make([]int32, dim)}
}

// NewEmbedder creates a filling embedder over a table of its own,
// producing vectors of the given dimensionality (use Dim for the paper's
// setting).
func NewEmbedder(dim int) *Embedder { return new(Table).Filler(dim) }

// Dim returns the vector dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Word returns the embedding of one word, from the table when it is
// there; callers must not modify the returned vector.
func (e *Embedder) Word(w string) Vec {
	if v, ok := e.tab.words.Load(w); ok && len(v.(Vec)) == e.dim {
		return v.(Vec)
	}
	padded := "<" + w + ">"
	seeds := append(e.seeds[:0], fnv64(padded)) // the whole word, bytes as given
	// The grams are windows of runes. Decoding replaces every invalid byte
	// with U+FFFD, so a word that is not valid UTF-8 is re-encoded first
	// and its windows hash the replacement's three bytes.
	s := padded
	if !utf8.ValidString(w) {
		s = string([]rune(padded))
	}
	offs := e.offs[:0]
	for i := range s {
		offs = append(offs, i)
	}
	runes := len(offs)
	offs = append(offs, len(s))
	for g := 3; g <= 6; g++ {
		if runes <= g { // shorter than the gram: the padded word is its only gram
			seeds = append(seeds, fnv64(s))
			continue
		}
		for i := 0; i+g <= runes; i++ {
			seeds = append(seeds, fnv64(s[offs[i]:offs[i+g]]))
		}
	}
	e.offs, e.seeds = offs, seeds

	clear(e.cnt)
	countTopBits(e.cnt, seeds)
	n := int32(len(seeds))
	v := make(Vec, e.dim)
	for i, c := range e.cnt {
		v[i] = float32(2*c - n) // c streams said +1, n−c said −1
	}
	Scale(v, 1/float32(n))
	Normalize(v)
	if e.fill {
		// The key is a copy: w is a window of a whole lower-cased text,
		// which a table entry would otherwise keep reachable.
		if _, had := e.tab.words.Swap(strings.Clone(w), v); !had {
			e.tab.n.Add(1)
		}
	}
	return v
}

// countTopBits adds to cnt[i] the number of streams whose i-th value has
// its top bit set, where stream j is the splitmix64 sequence seeded with
// seeds[j] (each value is the next one's state). A stream is a serial
// chain of two multiplies per value, so four independent streams advance
// together to keep the multiplier busy, and the bit is added, not
// branched on — it is a coin flip no predictor learns. A last group of
// fewer than four runs the same loop with its missing lanes masked off.
func countTopBits(cnt []int32, seeds []uint64) {
	for len(seeds) > 0 {
		var s [4]uint64
		var m [4]int32 // 1 for a lane that carries a stream
		live := copy(s[:], seeds)
		seeds = seeds[live:]
		for j := 0; j < live; j++ {
			m[j] = 1
		}
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		m1, m2, m3 := m[1], m[2], m[3] // lane 0 is always live
		for i := range cnt {
			s0, s1, s2, s3 = splitmixNext(s0), splitmixNext(s1), splitmixNext(s2), splitmixNext(s3)
			cnt[i] += int32(s0>>63) + int32(s1>>63)&m1 + int32(s2>>63)&m2 + int32(s3>>63)&m3
		}
	}
}

// Text returns the tuple embedding of a textual value: the average of its
// word embeddings, normalized to unit length (the "average tuple
// embedding" module FAISS and SCANN are paired with in the paper). The
// zero vector is returned for empty values.
func (e *Embedder) Text(s string) Vec {
	words := text.Tokenize(s)
	v := make(Vec, e.dim)
	if len(words) == 0 {
		return v
	}
	for _, w := range words {
		Add(v, e.Word(w))
	}
	Scale(v, 1/float32(len(words)))
	return Normalize(v)
}

// Texts embeds every string of the slice.
func (e *Embedder) Texts(texts []string) []Vec {
	out := make([]Vec, len(texts))
	for i, s := range texts {
		out[i] = e.Text(s)
	}
	return out
}

func fnv64(s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 advances the state and returns the next pseudo-random value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return splitmixFinal(*state)
}

// splitmixNext is one step of a stream that feeds each value back as the
// next state (state = splitmix64(&state)), in value form.
func splitmixNext(state uint64) uint64 {
	return splitmixFinal(state + 0x9e3779b97f4a7c15)
}

func splitmixFinal(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Gaussian fills out with standard normal samples drawn from the given
// seed using the Box–Muller transform over splitmix64 uniforms. It is the
// shared randomness primitive of the LSH families and k-means seeding.
func Gaussian(out []float64, seed uint64) {
	state := seed
	for i := 0; i < len(out); i += 2 {
		u1 := float64(splitmix64(&state)>>11) / (1 << 53)
		u2 := float64(splitmix64(&state)>>11) / (1 << 53)
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		r := math.Sqrt(-2 * math.Log(u1))
		out[i] = r * math.Cos(2*math.Pi*u2)
		if i+1 < len(out) {
			out[i+1] = r * math.Sin(2*math.Pi*u2)
		}
	}
}

// Mix64 exposes splitmix64 hashing of a value with a seed, for the LSH
// implementations.
func Mix64(x, seed uint64) uint64 {
	state := x ^ (seed * 0x9e3779b97f4a7c15)
	return splitmix64(&state)
}
