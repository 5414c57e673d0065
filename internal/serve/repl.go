package serve

// Replication endpoints: the leader side of WAL shipping (raw log
// ranges and bootstrap snapshots), explicit failover, follower
// re-parenting, and the epoch plumbing that gives clients
// read-your-writes across replicas. All of it mounts only when the
// server is built with a replication node.

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"erfilter/internal/repl"
	"erfilter/internal/wal"
)

// maxWALWait caps one /v1/wal long-poll park; callers re-poll.
const maxWALWait = 30 * time.Second

// replRoutes are the endpoints that exist only on a replicated server.
func (s *Server) replRoutes() []route {
	return []route{
		{"GET", "/v1/wal", "wal", s.handleWAL, true},
		{"POST", "/v1/failover", "failover", s.handleFailover, false},
		{"POST", "/v1/replica-of", "replica_of", s.handleReplicaOf, false},
	}
}

// handleWAL serves a raw range of the leader's durable log. from= is
// the follower's resume position and doubles as its durability ack
// (everything below it is fsynced follower-side); id= names the
// follower for semi-sync accounting; wait= long-polls when caught up.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := wal.ParsePosition(q.Get("from"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad from position: %w", err))
		return
	}
	max := wal.DefaultReadChunk
	if v := q.Get("max"); v != "" {
		max, err = strconv.Atoi(v)
		if err != nil || max <= 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad max: %q", v))
			return
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad wait: %q", v))
			return
		}
		wait = min(time.Duration(ms)*time.Millisecond, maxWALWait)
	}
	if id := q.Get("id"); id != "" {
		s.repl.ObserveFetch(id, from)
	}
	data, at, next, err := s.repl.ReadLog(from, max)
	if err == nil && len(data) == 0 && wait > 0 {
		s.repl.WaitLog(from, wait)
		data, at, next, err = s.repl.ReadLog(from, max)
	}
	if err != nil {
		s.writeReplError(w, err)
		return
	}
	h := w.Header()
	h.Set(repl.HeaderTerm, strconv.FormatUint(s.repl.Term(), 10))
	h.Set(repl.HeaderAt, at.String())
	h.Set(repl.HeaderNext, next.String())
	h.Set(repl.HeaderEnd, s.repl.LogPos().String())
	h.Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleReplSnapshot streams a bootstrap snapshot anchored at a log
// rotation boundary, the position and term in headers.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	pos, term, save, err := s.repl.ReplSnapshot()
	if err != nil {
		s.writeReplError(w, err)
		return
	}
	h := w.Header()
	h.Set(repl.HeaderReplPos, pos.String())
	h.Set(repl.HeaderTerm, strconv.FormatUint(term, 10))
	h.Set("Content-Type", "application/octet-stream")
	if err := save(w); err != nil {
		// Headers are out; the truncated stream fails the follower's
		// validation, so no partial state is ever installed.
		fmt.Fprintln(os.Stderr, "erserve: streaming bootstrap snapshot:", err)
	}
}

// handleFailover promotes this replica to leader: take the lease, turn
// the mirrored log into the writable WAL, append the new fencing term.
func (s *Server) handleFailover(w http.ResponseWriter, r *http.Request) {
	term, err := s.repl.Promote()
	if err != nil {
		s.writeReplError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": s.repl.Role().String(), "term": term})
}

// handleReplicaOf re-points a follower's tailer at a new leader URL —
// the re-parenting step after a failover.
func (s *Server) handleReplicaOf(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Upstream string `json:"upstream"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Upstream == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New(`"upstream" must not be empty`))
		return
	}
	if err := s.repl.SetUpstream(req.Upstream); err != nil {
		writeErr(w, http.StatusConflict, CodeNotLeader, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"upstream": req.Upstream})
}

// writeReplError maps replication failures onto the envelope: trimmed
// positions tell the follower to re-bootstrap (410), diverged positions
// that its log is from another reign (409), and non-leaders (and a
// replica too stale to promote) refuse with 503 so proxies re-probe.
func (s *Server) writeReplError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, wal.ErrTrimmed):
		writeErr(w, http.StatusGone, CodeWALTrimmed, err)
	case errors.Is(err, wal.ErrFuture):
		writeErr(w, http.StatusConflict, CodeWALDiverged, err)
	case errors.Is(err, repl.ErrNotLeader):
		writeErr(w, http.StatusServiceUnavailable, CodeNotLeader, err)
	case errors.Is(err, repl.ErrStale):
		writeErr(w, http.StatusServiceUnavailable, CodeStaleReplica, err)
	default:
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
	}
}

// tagEpoch stamps a replicated response with the replica's current log
// position — the token a client hands back as min_epoch to read its
// own writes from any replica.
func (s *Server) tagEpoch(w http.ResponseWriter) {
	if s.repl != nil {
		w.Header().Set(repl.HeaderEpoch, s.repl.LogPos().String())
	}
}

// checkEpoch enforces a request's min_epoch bound. It reports whether
// the request may proceed; on a replica that has not yet applied the
// position it answers 412 so the client can retry or fall back to the
// leader.
func (s *Server) checkEpoch(w http.ResponseWriter, minEpoch string) bool {
	if minEpoch == "" {
		return true
	}
	if s.repl == nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("min_epoch requires replication"))
		return false
	}
	want, err := wal.ParsePosition(minEpoch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad min_epoch: %w", err))
		return false
	}
	if at := s.repl.LogPos(); at.Less(want) {
		writeErr(w, http.StatusPreconditionFailed, CodeStaleEpoch,
			fmt.Errorf("replica at epoch %s has not applied %s yet", at, want))
		return false
	}
	return true
}

// readyCode classifies a readiness failure for the envelope.
func readyCode(reason error) string {
	switch {
	case errors.Is(reason, repl.ErrNotLeader):
		return CodeNotLeader
	case errors.Is(reason, repl.ErrStale):
		return CodeStaleReplica
	default:
		return CodeDegraded
	}
}
