package serve

// POST /v1/resolve/stream — the bulk resolve pipe. The client sends an
// NDJSON feed (one entityPayload per line, the same shape /v1/query
// accepts) and receives an NDJSON answer stream: one result line per
// resolvable record, one error line per malformed record, and a final
// summary line. The handler reads incrementally, resolves in bounded
// batches of the server's MaxBatch unit against the then-current epoch
// snapshot, and flushes after every batch — so a million-row feed costs
// O(batch) memory on the server no matter how large the request body
// grows, which is why this endpoint is exempt from the whole-body cap
// and bounded per line instead.
//
// Response lines:
//
//	{"i":N,"candidates":[...],"truncated":true}   resolved record N
//	{"i":N,"error":{"code":...,"message":...}}    record N failed
//	{"done":true,"records":R,"results":C,"errors":E,"epoch":P}
//
// Record indices count every input line carrying content, in arrival
// order. A malformed JSON line costs only that record; an oversized
// line terminates the stream (the byte boundary of the next record is
// unknowable), reported as a final error line before the summary.
// Candidate arrays are serialized exactly as /v1/query/batch serializes
// them, so a feed streamed here and the same queries batched there are
// byte-identical per record.
//
// With ?mode=match the stream runs the match stage instead of raw
// candidate retrieval: each resolve batch is decided one-to-one by the
// configured scorer, the result lines carry decided matches
// ({"i":N,"matches":[{"query":...,"id":...,"score":...}]}), and the
// budget= / top= / assign= parameters tune each decided batch. The
// summary then also reports total matches and scorer comparisons.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/match"
)

// streamQuantum is the rolling per-batch deadline of the resolve
// stream: each flushed batch extends the connection's read and write
// deadlines by this much, so an arbitrarily long feed survives the
// server's absolute timeouts while a stalled peer still gets cut off.
const streamQuantum = time.Minute

// streamResult is one resolved record. Candidates match the
// /v1/query/batch serialization byte for byte.
type streamResult struct {
	I          int       `json:"i"`
	Candidates []hit.Hit `json:"candidates"`
	Truncated  bool      `json:"truncated,omitempty"`
}

// streamError reports one failed record (or, for stream-fatal errors,
// the record the stream stopped at) in the standard envelope shape.
type streamError struct {
	I     int `json:"i"`
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// streamMatch is one decided record of a mode=match stream: the
// record's decided matches (at most one under one-to-one assignment)
// and whether the batch it rode in ran out of comparison budget.
type streamMatch struct {
	I         int              `json:"i"`
	Matches   []match.Decision `json:"matches"`
	Exhausted bool             `json:"exhausted,omitempty"`
}

// streamSummary is the final line of every response stream. Matches
// and Comparisons are populated by mode=match.
type streamSummary struct {
	Done        bool   `json:"done"`
	Records     int    `json:"records"`
	Results     int    `json:"results"`
	Errors      int    `json:"errors"`
	Epoch       uint64 `json:"epoch"`
	Plan        string `json:"plan,omitempty"`
	Matches     int    `json:"matches,omitempty"`
	Comparisons int    `json:"comparisons,omitempty"`
}

// streamParams validates the URL query parameters of a resolve stream —
// the stream's whole request body is the feed, so the per-request knobs
// that /v1/query takes from JSON fields ride in the URL instead.
func intParam(qp url.Values, name string) (int, error) {
	v := qp.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, v)
	}
	return n, nil
}

func floatParam(qp url.Values, name string) (float64, error) {
	v := qp.Get(name)
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, v)
	}
	return f, nil
}

func (s *Server) handleResolveStream(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	mode := qp.Get("mode")
	switch mode {
	case "", "resolve", "match":
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf(`bad mode: %q (want "resolve" or "match")`, mode))
		return
	}
	if mode == "match" && !s.checkMatch(w) {
		return
	}
	reqOpt, err := optionsFromURL(qp)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	ro, ok := s.resolveOptions(w, reqOpt)
	if !ok {
		return
	}
	opt, limit, plan := ro.opt, ro.limit, ro.plan
	var mreq match.Request
	massign := match.Assign(-1)
	if mode == "match" {
		budget, err := intParam(qp, "budget")
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		top, err := intParam(qp, "top")
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		p := matchParams{Budget: budget, Top: top, Assign: qp.Get("assign")}
		if mreq, massign, ok = p.resolve(w); !ok {
			return
		}
		mreq.Opt = opt
	}

	cfg := s.Resolver().Config()
	rc := http.NewResponseController(w)
	// The stream writes results while the feed is still arriving; without
	// this, Go's HTTP/1 server goes half-duplex on the first write and
	// truncates the remaining body. Recorders and HTTP/2 don't need it.
	rc.EnableFullDuplex()
	// A stream is a one-shot pipe: when it terminates early (line cap,
	// malformed framing) the rest of the feed is unread and unbounded, so
	// the connection can never be drained for reuse — close it instead.
	w.Header().Set("Connection", "close")
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.tagEpoch(w)
	w.WriteHeader(http.StatusOK)

	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)
	sc := bufio.NewScanner(r.Body)
	// Scanner's effective token cap is max(cap(buf), max), so the
	// initial buffer must not exceed the configured line cap.
	sc.Buffer(make([]byte, 0, min(64<<10, s.maxLine)), s.maxLine)

	var (
		batch       [][]entity.Attribute
		idx         []int // record index of each pending batch entry
		records     int
		results     int
		errs        int
		epoch       uint64
		matches     int
		comparisons int
	)
	emitErr := func(i int, code, msg string) {
		var e streamError
		e.I = i
		e.Error.Code = code
		e.Error.Message = msg
		enc.Encode(e)
		errs++
	}
	// flush resolves the pending batch against the then-current snapshot,
	// writes its result lines, pushes them to the client, and rolls the
	// connection deadlines. A false return means the client is gone.
	flush := func() bool {
		if len(batch) > 0 {
			snap := s.Resolver().Snapshot()
			epoch = snap.Epoch()
			if mode == "match" {
				// Decide the batch: one line per record with its decided
				// match (one-to-one within the batch), in input order. The
				// comparison budget and top-N cut apply per decided batch.
				res := s.matcher.DecideBatch(snap, batch, mreq, massign)
				perQ := make([][]match.Decision, len(batch))
				for _, d := range res.Decisions {
					perQ[d.Query] = append(perQ[d.Query], d)
				}
				for j := range batch {
					ms := perQ[j]
					if ms == nil {
						ms = []match.Decision{}
					}
					enc.Encode(streamMatch{I: idx[j], Matches: ms, Exhausted: res.Exhausted})
				}
				matches += len(res.Decisions)
				comparisons += res.Comparisons
				results += len(batch)
			} else {
				rs, _ := snap.QueryBatch(batch, opt)
				for j, cands := range rs {
					truncated := len(cands) > limit
					if truncated {
						cands = cands[:limit]
					}
					enc.Encode(streamResult{I: idx[j], Candidates: cands, Truncated: truncated})
				}
				results += len(rs)
			}
			batch, idx = batch[:0], idx[:0]
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		rc.Flush()
		// Best effort: a test recorder has no deadlines to roll.
		rc.SetReadDeadline(time.Now().Add(streamQuantum))
		rc.SetWriteDeadline(time.Now().Add(streamQuantum))
		return true
	}

	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var p entityPayload
		if err := json.Unmarshal(line, &p); err != nil {
			emitErr(records, CodeBadRequest, "decoding record: "+err.Error())
			records++
			continue
		}
		attrs, err := p.attrs(cfg)
		if err != nil {
			emitErr(records, CodeBadRequest, err.Error())
			records++
			continue
		}
		batch = append(batch, attrs)
		idx = append(idx, records)
		records++
		if len(batch) >= s.maxBatch {
			if !flush() {
				return
			}
		}
	}
	if serr := sc.Err(); serr != nil {
		// Drain what already resolved cleanly, then report why the
		// stream stopped; the summary still follows, so the client can
		// tell a terminated feed from a completed one.
		if !flush() {
			return
		}
		if errors.Is(serr, bufio.ErrTooLong) {
			emitErr(records, CodeTooLarge,
				fmt.Sprintf("record %d exceeds the %d-byte line cap", records, s.maxLine))
		} else {
			emitErr(records, CodeBadRequest, "reading stream: "+serr.Error())
		}
	}
	if !flush() {
		return
	}
	if epoch == 0 {
		epoch = s.Resolver().Snapshot().Epoch()
	}
	enc.Encode(streamSummary{
		Done: true, Records: records, Results: results, Errors: errs, Epoch: epoch, Plan: plan,
		Matches: matches, Comparisons: comparisons,
	})
	bw.Flush()
	rc.Flush()
}
