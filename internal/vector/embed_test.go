package vector

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
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

// BenchmarkWordCold prices one uncached Word call: the kernel. A reading
// embedder stores nothing, so every call misses.
func BenchmarkWordCold(b *testing.B) {
	e := new(Table).Reader(Dim)
	e.Word("powershot") // grow the scratch: -benchtime 1x is CI's smoke
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordSink = e.Word("powershot")
	}
}

// BenchmarkWordWarm prices a table hit — the sync.Map read a query pays
// per word of the indexed vocabulary — through a reading embedder over a
// table of 5 000 words, so the lookup walks a trie of serving size.
func BenchmarkWordWarm(b *testing.B) {
	var tab Table
	fill := tab.Filler(Dim)
	for i := 0; i < 5000; i++ {
		fill.Word(fmt.Sprintf("word%d", i))
	}
	fill.Word("powershot")
	e := tab.Reader(Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wordSink = e.Word("powershot")
	}
}

// TestTableConcurrentFillMatchesSerial: eight filling embedders over one
// table, racing on overlapping texts (the invalid-UTF-8 words included),
// return and store exactly what one serial embedder computes.
func TestTableConcurrentFillMatchesSerial(t *testing.T) {
	texts := make([]string, 64)
	for i := range texts { // text i holds words i..i+7 of the table: every word is in 8 texts
		var ws []string
		for j := 0; j < 8; j++ {
			ws = append(ws, wordTable[(i+j)%len(wordTable)])
		}
		texts[i] = strings.Join(ws, " ")
	}
	serial := NewEmbedder(48)
	want := serial.Texts(texts)
	var tab Table
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := tab.Filler(48)
			for k := range texts {
				i := (k + g*8) % len(texts) // each goroutine starts elsewhere
				if !sameBits(e.Text(texts[i]), want[i]) {
					t.Errorf("goroutine %d: Text(%q) differs from the serial embedder", g, texts[i])
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != serial.tab.Len() {
		t.Fatalf("table holds %d words after the concurrent fill, %d after the serial one", tab.Len(), serial.tab.Len())
	}
	tab.words.Range(func(w, v any) bool {
		if !sameBits(v.(Vec), serial.Word(w.(string))) {
			t.Errorf("table entry %q differs from the serial embedder's", w)
		}
		return true
	})
}

// TestTableDimensionIsTheEmbedders: the table fixes no dimension, so an
// entry of another length is a miss, not an answer.
func TestTableDimensionIsTheEmbedders(t *testing.T) {
	var tab Table
	tab.Filler(48).Word("canon")
	if got := tab.Reader(7).Word("canon"); !sameBits(got, referenceWord(7, "canon")) {
		t.Fatalf("a 7-d reader over a table filled at 48-d answered %d dimensions", len(got))
	}
	if got := tab.Filler(7).Word("canon"); len(got) != 7 || tab.Len() != 1 {
		t.Fatalf("refill at 7-d: %d dimensions, table length %d, want 7 and 1", len(got), tab.Len())
	}
}

// TestTableKeyDoesNotPinText: text.Tokenize returns windows of the whole
// lower-cased text, so a table keyed by the window would keep every text
// that introduced a word reachable — here 200 texts of 64 KiB, 12.8 MiB.
func TestTableKeyDoesNotPinText(t *testing.T) {
	var tab Table
	e := tab.Filler(8)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 200; i++ {
		e.Text(strings.Repeat("canon ", 64<<10/6) + fmt.Sprintf("novel%d", i))
	}
	after := heap()
	if tab.Len() != 201 {
		t.Fatalf("table holds %d words, want 201", tab.Len())
	}
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Fatalf("heap grew by %d bytes over 200 texts of 64 KiB: the table pins them", grown)
	}
	runtime.KeepAlive(&tab)
}
