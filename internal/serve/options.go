package serve

// The shared per-request option set. Every candidate-producing endpoint
// — /v1/query, /v1/query/batch, /v1/resolve/stream and /v1/match —
// accepts the same knobs with the same validation and the same 400
// envelopes: k, eps, ef, approx, limit, where, min_score, trace,
// min_epoch. JSON endpoints take them as body fields; the NDJSON
// stream, whose body is the feed, takes the identical set as URL query
// parameters. One decode+validate path (resolveOptions) serves all
// four, so an option can never drift between endpoints.

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"erfilter/internal/online"
)

// requestOptions is the wire form of the shared option set.
type requestOptions struct {
	// K asks for the k nearest candidates (KNN-join semantics).
	K int `json:"k"`
	// Eps asks for every candidate at similarity >= eps (ε-join).
	Eps float64 `json:"eps"`
	// Ef widens the beam of an approximate (HNSW) index.
	Ef int `json:"ef"`
	// Approx false forces the exact oracle on an approximate index.
	Approx *bool `json:"approx"`
	// Limit caps the serialized candidate list; 0 picks the default.
	Limit int `json:"limit"`
	// Where is the predicate DSL (filters, score floor, top, explain).
	Where string `json:"where"`
	// MinScore is a direct floor on the candidate score (higher is
	// better for every method, so a dense floor is <= 0 under L2²);
	// combined with a where-derived floor the stricter one wins.
	MinScore *float64 `json:"min_score"`
	// Trace asks for the engine timing section.
	Trace bool `json:"trace"`
	// MinEpoch bounds replica staleness (read-your-writes token).
	MinEpoch string `json:"min_epoch"`
}

// optionsFromURL decodes the shared option set from URL query
// parameters — the stream's carrier — with the same field names the
// JSON bodies use.
func optionsFromURL(qp url.Values) (requestOptions, error) {
	var ro requestOptions
	var err error
	if ro.K, err = intParam(qp, "k"); err != nil {
		return ro, err
	}
	if ro.Eps, err = floatParam(qp, "eps"); err != nil {
		return ro, err
	}
	if ro.Ef, err = intParam(qp, "ef"); err != nil {
		return ro, err
	}
	if v := qp.Get("approx"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return ro, fmt.Errorf("bad approx: %q", v)
		}
		ro.Approx = &b
	}
	if ro.Limit, err = intParam(qp, "limit"); err != nil {
		return ro, err
	}
	ro.Where = qp.Get("where")
	if v := qp.Get("min_score"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return ro, fmt.Errorf("bad min_score: %q", v)
		}
		ro.MinScore = &f
	}
	if v := qp.Get("trace"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return ro, fmt.Errorf("bad trace: %q", v)
		}
		ro.Trace = b
	}
	ro.MinEpoch = qp.Get("min_epoch")
	return ro, nil
}

// resolvedOptions is the validated, engine-ready form.
type resolvedOptions struct {
	opt     online.QueryOptions
	limit   int
	plan    string
	explain bool
}

// resolveOptions validates the shared option set and folds it into
// engine query options. On failure it writes the enveloped 400 (or the
// epoch-bound 412) itself and returns ok=false; every endpoint that
// accepts these options fails identically.
func (s *Server) resolveOptions(w http.ResponseWriter, ro requestOptions) (resolvedOptions, bool) {
	if !s.checkEpoch(w, ro.MinEpoch) {
		return resolvedOptions{}, false
	}
	opt, err := resolveANN(ro.Ef, ro.Approx)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return resolvedOptions{}, false
	}
	limit, err := resolveLimit(ro.Limit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return resolvedOptions{}, false
	}
	limit, plan, explain, err := applyWhere(ro.Where, &opt, limit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return resolvedOptions{}, false
	}
	if ro.MinScore != nil {
		// A NaN floor would filter nothing (c.Score < NaN is false) and
		// an infinite one everything or nothing; both are mistakes.
		if math.IsNaN(*ro.MinScore) || math.IsInf(*ro.MinScore, 0) {
			writeErr(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("min_score must be finite, got %v", *ro.MinScore))
			return resolvedOptions{}, false
		}
		// The stricter of the direct floor and a where-derived one.
		if opt.MinScore == nil || *ro.MinScore > *opt.MinScore {
			ms := *ro.MinScore
			opt.MinScore = &ms
		}
	}
	opt.K, opt.Threshold = ro.K, ro.Eps
	return resolvedOptions{opt: opt, limit: limit, plan: plan, explain: explain}, true
}
