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
	"sync/atomic"
	"testing"
	"testing/quick"
	"unicode/utf8"

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

var textSink Vec

// BenchmarkTextWarm prices the tuple embedding a query pays when its words
// are the indexed vocabulary: 14 table hits — a dictionary probe and a
// record decode each — summed and normalized, through a reading embedder
// over a table of 5 000 words, so the lookup probes a table of serving
// size.
func BenchmarkTextWarm(b *testing.B) {
	const tuple = "canon powershot a540 6mp digital camera 4x optical zoom 25 inch lcd silver black"
	var tab Table
	fill := tab.Filler(Dim)
	for i := 0; i < 5000; i++ {
		fill.Word(fmt.Sprintf("word%d", i))
	}
	fill.Text(tuple)
	e := tab.Reader(Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textSink = e.Text(tuple)
	}
}

// BenchmarkTableFill prices a bulk load's word table: two fillers, each
// over a fixed list of 2 000 words in its own order, into a fresh table —
// every word is computed by one or both and stored once, each store a
// dictionary put, a record and a published view under the table's lock.
func BenchmarkTableFill(b *testing.B) {
	words := make([]string, 2000)
	for i := range words {
		words[i] = fmt.Sprintf("fill%d", i)
	}
	for i := 0; i < b.N; i++ {
		var tab Table
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := tab.Filler(Dim)
				for k := range words {
					e.Word(words[(k*(2*g+1))%len(words)])
				}
			}()
		}
		wg.Wait()
		if tab.Len() != len(words) {
			b.Fatalf("table holds %d words, want %d", tab.Len(), len(words))
		}
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
	v := tab.view.Load()
	for _, txt := range texts {
		for _, w := range text.Tokenize(txt) {
			id := v.words.Find(w)
			if id < 0 {
				if utf8.RuneCountInString(w) <= 65 {
					t.Fatalf("word %q of a filled text is not in the table", w)
				}
				continue
			}
			got := make(Vec, 48)
			serial.addRecord(got, v.recs.Row(int(id)))
			if !sameBits(got, serial.Word(w)) {
				t.Errorf("table record of %q differs from the serial embedder's", w)
			}
		}
	}
}

// stored reports whether tab holds a record of w.
func stored(tab *Table, w string) bool {
	v := tab.view.Load()
	return v != nil && v.words.Find(w) >= 0
}

// TestTableReadersWhileFillersStore: two fillers store 3 000 words of 48
// dimensions — the dictionary grows six times, from 64 slots to 4 096,
// and the records fill two pages and start a third — while two readers
// embed the same words; every answer equals the reference loop's. Run
// under -race, where a reader reading a record, a key or a dictionary
// slot a filler is writing shows.
func TestTableReadersWhileFillersStore(t *testing.T) {
	const dim, n = 48, 3000
	words, want := make([]string, n), make([]Vec, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%dq", i)
		want[i] = referenceWord(dim, words[i])
	}
	var tab Table
	pass := func(e *Embedder, from int) bool {
		for k := range words {
			i := (from + k) % n
			if !sameBits(e.Word(words[i]), want[i]) {
				t.Errorf("filler %v: Word(%q) differs from the reference", e.fill, words[i])
				return false
			}
		}
		return true
	}
	var filled atomic.Bool
	var fillers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			pass(tab.Filler(dim), g*n/2)
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for e := tab.Reader(dim); pass(e, g*n/3) && !filled.Load(); {
			}
		}()
	}
	fillers.Wait()
	filled.Store(true)
	readers.Wait()
	if tab.Len() != n {
		t.Fatalf("table holds %d words, want %d", tab.Len(), n)
	}
	if per, v := pageBytes/(5+dim), tab.view.Load(); v.recs.Len() != n || (n+per-1)/per != 3 || per >= n/2 {
		t.Fatalf("%d words of %d records in pages of %d: the fill no longer crosses two page boundaries", n, v.recs.Len(), per)
	}
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

// TestTableHitEqualsMiss: a stored word decodes to the bits its cold
// computation and the reference loop produce, at every dimension, through
// Word and inside a Text; a word is stored exactly when it fits a byte.
func TestTableHitEqualsMiss(t *testing.T) {
	all := strings.Join(wordTable, " ")
	for _, dim := range []int{1, 7, 48, Dim} {
		var tab Table
		fill, read, cold := tab.Filler(dim), tab.Reader(dim), new(Table).Reader(dim)
		for _, w := range wordTable {
			want := referenceWord(dim, w)
			if miss := fill.Word(w); !sameBits(miss, want) {
				t.Fatalf("dim %d: the filling miss of %q differs from the reference", dim, w)
			}
			if stored := stored(&tab, w); stored != (utf8.RuneCountInString(w) <= 65) {
				t.Fatalf("dim %d: %q (%d runes) stored = %v", dim, w, utf8.RuneCountInString(w), stored)
			}
			for _, e := range []*Embedder{fill, read, cold} {
				if got := e.Word(w); !sameBits(got, want) {
					t.Fatalf("dim %d: Word(%q) differs from the reference (filler %v, own table %v)", dim, w, e.fill, e.tab == &tab)
				}
			}
		}
		want := cold.Text(all)
		for _, e := range []*Embedder{fill, read, fill} { // a miss, then hits: Text stores its lower-cased words
			if got := e.Text(all); !sameBits(got, want) {
				t.Fatalf("dim %d: Text over the table differs from the cold Text", dim)
			}
		}
	}
}

// TestTableLongWord: 65 runes pad to 255 grams, the most a byte counts,
// and are stored; 66 runes are 259 grams and are computed on every use.
func TestTableLongWord(t *testing.T) {
	var tab Table
	e := tab.Filler(Dim)
	w65, w66 := strings.Repeat("é", 65), strings.Repeat("é", 66)
	for _, c := range []struct {
		w      string
		n      int32
		stored bool
	}{{w65, 255, true}, {w66, 259, false}} {
		if n := e.count(c.w); n != c.n {
			t.Fatalf("%d runes: %d grams, want %d", utf8.RuneCountInString(c.w), n, c.n)
		}
		for i := 0; i < 2; i++ {
			if !sameBits(e.Word(c.w), referenceWord(Dim, c.w)) {
				t.Fatalf("%d runes, call %d: Word differs from the reference", utf8.RuneCountInString(c.w), i)
			}
		}
		if stored := stored(&tab, c.w); stored != c.stored {
			t.Fatalf("%d runes: stored = %v, want %v", utf8.RuneCountInString(c.w), stored, c.stored)
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("table length %d, want 1", tab.Len())
	}
}

// TestTableBytesPerWord: a stored 300-d word costs its 305-B record in a
// page, its bytes and its dictionary slots — 1 437 B when it was 300
// float32s, 484 B when it was an entry of a sync.Map.
func TestTableBytesPerWord(t *testing.T) {
	const words = 20000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var tab Table
	e := tab.Filler(Dim)
	before := heap()
	for i := 0; i < words; i++ {
		e.Word(fmt.Sprintf("word%d", i))
	}
	grown := int64(heap()) - int64(before)
	if tab.Len() != words {
		t.Fatalf("table holds %d words, want %d", tab.Len(), words)
	}
	per := grown / words
	t.Logf("%d B of heap per stored word", per)
	if per >= 360 {
		t.Fatalf("%d B of heap per stored word, want < 360", per)
	}
	runtime.KeepAlive(&tab)
}

// TestReaderMissAllocatesNothing: a word a reader does not find is
// computed in its scratch, so a text of twenty unseen words allocates what
// a text of one does — the result and the word list.
func TestReaderMissAllocatesNothing(t *testing.T) {
	e := new(Table).Reader(Dim)
	var many []string
	for i := 0; i < 20; i++ {
		many = append(many, fmt.Sprintf("unseen%c", 'a'+i))
	}
	one, twenty := many[0], strings.Join(many, " ")
	a1 := testing.AllocsPerRun(20, func() { e.Text(one) })
	a20 := testing.AllocsPerRun(20, func() { e.Text(twenty) })
	if a1 != a20 {
		t.Fatalf("Text allocates %v times for one unseen word, %v for twenty", a1, a20)
	}
}
