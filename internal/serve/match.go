package serve

// The match-stage endpoints. POST /v1/match runs the full
// filter-then-verify pipeline in one request: the batch is resolved
// against the snapshot, the candidate pairs are scored with the
// configured post-filter scorer, and the decisions come back one-to-one
// under the requested assignment discipline. GET /v1/clusters/{id}
// reads the dirty-ER duplicate cluster of a resident entity. Both
// routes are always mounted; on a server built without Options.Match
// they answer 501 match_disabled so clients can distinguish "not
// configured here" from a typo'd path.

import (
	"errors"
	"fmt"
	"net/http"

	"erfilter/internal/match"
)

// insertResultJSON is one dirty-mode insert outcome: the new id, the
// duplicate cluster it landed in, and the decided matches that put it
// there (empty for a novel entity, whose cluster is itself).
type insertResultJSON struct {
	ID      int64            `json:"id"`
	Cluster int64            `json:"cluster"`
	Matches []match.Decision `json:"matches"`
}

// checkMatch gates a match-stage endpoint on the stage being
// configured.
func (s *Server) checkMatch(w http.ResponseWriter) bool {
	if s.matcher == nil {
		writeErr(w, http.StatusNotImplemented, CodeMatchDisabled,
			errors.New("match stage not configured (start with -match)"))
		return false
	}
	return true
}

// matchParams are the match-only knobs riding alongside the shared
// option set: the comparison budget, the progressive top-N cut, and a
// per-request assignment override.
type matchParams struct {
	Budget int    `json:"budget"`
	Top    int    `json:"top"`
	Assign string `json:"assign"`
}

// resolve validates the match knobs. assign < 0 means "use the
// server's configured discipline".
func (p matchParams) resolve(w http.ResponseWriter) (match.Request, match.Assign, bool) {
	if p.Budget < 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("budget must be >= 0, got %d", p.Budget))
		return match.Request{}, 0, false
	}
	if p.Top < 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("top must be >= 0, got %d", p.Top))
		return match.Request{}, 0, false
	}
	assign := match.Assign(-1)
	if p.Assign != "" {
		a, err := match.ParseAssign(p.Assign)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
			return match.Request{}, 0, false
		}
		assign = a
	}
	return match.Request{Budget: p.Budget, Top: p.Top}, assign, true
}

// handleMatch decides a batch of queries in one shot. The request
// accepts the shared option set plus the match knobs:
//
//	{"queries":[...], "k":..., "eps":..., "budget":N, "top":N,
//	 "assign":"greedy"|"bipartite"}
//
// Decisions come back in decreasing scorer similarity — the
// progressive "best pairs first" order — and the response reports how
// many comparisons the budget actually bought.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if !s.checkMatch(w) {
		return
	}
	var req struct {
		Queries []entityPayload `json:"queries"`
		requestOptions
		matchParams
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	ro, ok := s.resolveOptions(w, req.requestOptions)
	if !ok {
		return
	}
	mreq, assign, ok := req.matchParams.resolve(w)
	if !ok {
		return
	}
	batch, ok := s.queryBatch(w, req.Queries)
	if !ok {
		return
	}
	mreq.Opt = ro.opt
	s.tagEpoch(w)
	res := s.matcher.DecideBatch(s.Resolver().Snapshot(), batch, mreq, assign)
	out := struct {
		Epoch       uint64           `json:"epoch"`
		Entities    int              `json:"entities"`
		Matches     []match.Decision `json:"matches"`
		Pairs       int              `json:"pairs"`
		Comparisons int              `json:"comparisons"`
		Exhausted   bool             `json:"exhausted,omitempty"`
		Plan        string           `json:"plan,omitempty"`
	}{
		Epoch: res.Epoch, Entities: res.Entities, Matches: res.Decisions,
		Pairs: res.Pairs, Comparisons: res.Comparisons, Exhausted: res.Exhausted,
		Plan: ro.plan,
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCluster reads the duplicate cluster of one resident entity:
// its canonical cluster id (the smallest member) and the full member
// list. Only meaningful in dirty-ER mode.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.dirty == nil {
		writeErr(w, http.StatusNotImplemented, CodeMatchDisabled,
			errors.New("cluster reads need dirty-ER mode (start with -match -dirty)"))
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	cluster, members, ok := s.dirty.ClusterOf(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("entity %d not resident", id))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID      int64   `json:"id"`
		Cluster int64   `json:"cluster"`
		Members []int64 `json:"members"`
		Size    int     `json:"size"`
	}{ID: id, Cluster: cluster, Members: members, Size: len(members)})
}
