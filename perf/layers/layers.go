// Package layers prices each leaf package of the program on its own:
// direct, timed calls into the package's public functions on inputs cut
// from the benchmark's fixed corpus, one file per layer. A traced run
// reports them next to what it observed on the daemon, so a change in an
// end-to-end number can be traced to the layer that moved.
package layers

import (
	"runtime"
	"sort"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/text"
)

// Inputs is what the layers are measured on.
type Inputs struct {
	E1, Q [][]entity.Attribute // knnj_point's resident collection and query set
	Where string               // match_mixed_durable's predicate
	Tmp   string               // scratch directory inside the checkout
}

// Value is one measured number; N is the number of timed calls behind it.
type Value struct {
	V float64
	N int
}

// prepared is the corpus in the forms several layers share.
type prepared struct {
	in              Inputs
	e1Raw, qRaw     []string // schema-agnostic text, as online.Config.TextOf assembles it
	e1Clean, qClean []string // after text.Clean, what the indexes see
}

// All runs every direct measurement and returns the metrics by name.
func All(in Inputs) map[string]Value {
	p := &prepared{in: in, e1Raw: allText(in.E1), qRaw: allText(in.Q)}
	p.e1Clean, p.qClean = text.CleanAll(p.e1Raw), text.CleanAll(p.qRaw)
	out := map[string]Value{}
	for _, layer := range []func(*prepared, map[string]Value){
		textLayer, vectorLayer, sparseLayer, knnLayer, walLayer, queryLayer, matchLayer, metricsLayer,
	} {
		layer(p, out)
	}
	return out
}

func allText(profiles [][]entity.Attribute) []string {
	out := make([]string, len(profiles))
	for i, attrs := range profiles {
		out[i] = (&entity.Profile{Attrs: attrs}).AllText()
	}
	return out
}

// perCallUS times rounds passes of fn, each making calls calls, and
// returns the median pass as microseconds per call.
func perCallUS(rounds, calls int, fn func()) Value {
	us := make([]float64, rounds)
	for i := range us {
		begin := time.Now()
		fn()
		us[i] = float64(time.Since(begin).Nanoseconds()) / 1e3 / float64(calls)
	}
	sort.Float64s(us)
	return Value{V: us[len(us)/2], N: rounds * calls}
}

// allocsPerCall runs fn (which makes calls calls) once and returns heap
// objects and bytes allocated per call, as the runtime counts them.
func allocsPerCall(calls int, fn func()) (objects, bytes Value) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	n := float64(calls)
	return Value{V: float64(b.Mallocs-a.Mallocs) / n, N: calls}, Value{V: float64(b.TotalAlloc-a.TotalAlloc) / n, N: calls}
}
