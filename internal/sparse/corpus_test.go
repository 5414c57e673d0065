package sparse

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/text"
)

// buildCorpusReference is the serial BuildCorpus that the chunked one
// replaced: one dictionary, keys cloned, ids by first occurrence over
// texts1 then texts2.
func buildCorpusReference(texts1, texts2 []string, model text.Model) *Corpus {
	dict := map[string]int32{}
	encode := func(texts []string) [][]int32 {
		sets := make([][]int32, len(texts))
		for i, s := range texts {
			toks := model.Tokens(s)
			ids := make([]int32, 0, len(toks))
			for _, tok := range toks {
				id, ok := dict[tok]
				if !ok {
					id = int32(len(dict))
					dict[strings.Clone(tok)] = id
				}
				ids = append(ids, id)
			}
			sets[i] = ids
		}
		return sets
	}
	c := &Corpus{}
	c.Sets1 = encode(texts1)
	c.Sets2 = encode(texts2)
	c.NumTokens = len(dict)
	return c
}

// TestBuildCorpusMatchesReference holds the chunked BuildCorpus to the
// serial body, deep-equal (ids, set order, empty sets, dictionary size),
// for every representation model over several dataset analogs in both
// schema settings, and over the edges of the chunking: an empty side, one
// text, and lengths around the number of chunks, where a token first seen
// at a chunk's first text must keep its serial id. Each case runs at
// GOMAXPROCS 1, 2, 3 and 8, which moves every chunk boundary.
func TestBuildCorpusMatchesReference(t *testing.T) {
	type side struct {
		name   string
		t1, t2 []string
	}
	var cases []side
	for _, name := range []string{"D2", "D3", "D8"} {
		task := datagen.ByName(name, 0.02)
		for _, setting := range []entity.SchemaSetting{entity.SchemaAgnostic, entity.SchemaBased} {
			v1, v2 := entity.TaskViews(task, setting)
			cases = append(cases, side{fmt.Sprintf("%s/%s", name, setting), v1.Texts(), v2.Texts()})
		}
	}
	words := strings.Fields("canon nikon camera lens zoom sony alpha beta canon camera")
	boundary := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = strings.Join(words[i%len(words):], " ") + fmt.Sprintf(" w%d", i%5)
		}
		return out
	}
	cases = append(cases,
		side{"both empty", nil, nil},
		side{"empty E1", nil, []string{"canon eos", "nikon"}},
		side{"empty E2", []string{"canon eos", "nikon"}, []string{}},
		side{"one text", []string{"canon eos 400d"}, nil},
		side{"empty texts", []string{"", "canon", ""}, []string{"", ""}},
	)
	for _, n := range []int{2, 3, 7, 8, 9, 31, 32, 33} {
		cases = append(cases, side{fmt.Sprintf("boundary %d+%d", n, n/2), boundary(n), boundary(n / 2)})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		for _, model := range text.Models() {
			want := buildCorpusReference(c.t1, c.t2, model)
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				if got := BuildCorpus(c.t1, c.t2, model); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s, GOMAXPROCS %d: corpus differs from the serial reference", c.name, model, procs)
				}
			}
		}
	}
}
