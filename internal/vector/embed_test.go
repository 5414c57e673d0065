package vector

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"erfilter/internal/text"
)

// referenceWord is the embedding kernel as it stood before the counting
// kernel replaced it: one float32 ±1 accumulation per dimension per gram,
// over the gram strings text.NGrams materializes. It is the oracle Word
// must equal bit for bit.
func referenceWord(dim int, w string) Vec {
	hashedInto := func(v Vec, token string) {
		state := fnv64(token)
		for i := range v {
			state = splitmix64(&state)
			if state>>63 == 1 {
				v[i] += 1
			} else {
				v[i] -= 1
			}
		}
	}
	padded := "<" + w + ">"
	v := make(Vec, dim)
	n := 0
	for g := 3; g <= 6; g++ {
		for _, gram := range text.NGrams(padded, g) {
			hashedInto(v, gram)
			n++
		}
	}
	hashedInto(v, padded)
	n++
	Scale(v, 1/float32(n))
	return Normalize(v)
}

func sameBits(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// wordTable covers every shape the gram walk branches on: words shorter
// than every gram size ("a" hashes "<a>" five times — once per gram size
// and once as the whole word), lengths on both sides of each gram size
// and of the four-chain grouping, multi-byte runes, a long word, and
// invalid UTF-8, whose grams see U+FFFD while the whole-word hash sees
// the raw bytes.
var wordTable = []string{
	"", "a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg",
	"canon", "powershot", "bibliography", "0123456789",
	"é", "né", "résumé", "日", "日本", "日本語", "naïve-ish", "Ünïcödé",
	strings.Repeat("xyz", 66) + "ab", // 200 runes
	strings.Repeat("語", 200),
	"\xff", "a\xffb", "\xc3", "ab\xc3", "\xe6\x97", "caf\xc3\xa9\x80", "\xf0\x9f\x98",
}

func TestWordEqualsReference(t *testing.T) {
	for _, dim := range []int{1, 7, 48, Dim} {
		e := NewEmbedder(dim)
		for _, w := range wordTable {
			if got, want := e.Word(w), referenceWord(dim, w); !sameBits(got, want) {
				t.Fatalf("dim %d: Word(%q) differs from the reference loop", dim, w)
			}
		}
	}
	e := NewEmbedder(Dim)
	f := func(w string) bool { return sameBits(e.Word(w), referenceWord(Dim, w)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWordGolden pins the vectors themselves, so a later kernel that
// changes both Word and the reference in step is still caught: every
// HNSW link, snapshot byte and benchmark answers hash descends from them.
func TestWordGolden(t *testing.T) {
	e := NewEmbedder(Dim)
	h := sha256.New()
	var b [4]byte
	for _, w := range wordTable {
		for _, x := range e.Word(w) {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	const want = "5b41ea55201fc2419c88198612afbb87dbec3533a2cad96f90641aa8d0883840"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("word vectors SHA-256 = %s, want %s", got, want)
	}
}

var wordSink Vec

// BenchmarkWordCold prices one uncached Word call (a fresh embedder per
// iteration would price the map; resetting the cache prices the kernel).
func BenchmarkWordCold(b *testing.B) {
	e := NewEmbedder(Dim)
	e.Word("powershot") // grow the scratch: -benchtime 1x is CI's smoke
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete(e.cache, "powershot")
		wordSink = e.Word("powershot")
	}
}
