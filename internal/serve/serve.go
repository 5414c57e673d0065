// Package serve is the HTTP serving layer of the online resolver: the
// versioned /v1 JSON API with its uniform error envelope, the
// middleware stack (panic containment, per-endpoint instrumentation,
// request deadlines, bounded write admission) and the route table —
// importable, so tests and tools mount the exact production handler
// without booting the daemon.
//
// Every non-2xx response, including deadline 503s, admission sheds and
// the mux's own 404/405s, carries the same JSON envelope:
//
//	{"error":{"code":"<machine readable>","message":"<human readable>"}}
//
// The pre-/v1 unversioned aliases (e.g. /query for /v1/query) are
// retired: they answer 404 in the standard envelope like any unknown
// path. /v1 is the only serving surface.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/match"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
	"erfilter/internal/query"
	"erfilter/internal/repl"
)

// Error codes of the /v1 envelope. Machine-readable and stable; the
// message is for humans and may change.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeDegraded         = "degraded"
	CodeInternal         = "internal"
	// CodeTooLarge answers 413: a JSON request body over the server's
	// byte cap, or one NDJSON stream line over the per-line cap.
	CodeTooLarge = "request_too_large"
	// CodeEntityTooLarge answers 413 on an insert whose entity the
	// persisted formats cannot hold (online.CheckEntity): reachable only
	// with a body cap raised past 16 MiB.
	CodeEntityTooLarge = "entity_too_large"

	// Replication codes: writes and replication reads on a non-leader,
	// queries whose min_epoch the replica has not applied, readiness of
	// a lagging follower, and WAL fetch positions that were trimmed away
	// or never existed on this leader's timeline.
	CodeNotLeader    = "not_leader"
	CodeStaleEpoch   = "stale_epoch"
	CodeStaleReplica = "stale_replica"
	CodeWALTrimmed   = "wal_trimmed"
	CodeWALDiverged  = "wal_diverged"

	// CodeMatchDisabled answers 501 on the match-stage endpoints
	// (/v1/match, /v1/clusters/{id}, mode=match streams) of a server
	// built without Options.Match (or without dirty mode for the
	// cluster reads). The routes are always mounted so clients get a
	// machine-readable "not configured" instead of a generic 404.
	CodeMatchDisabled = "match_disabled"
)

// Options tune a server; the zero value is production-ready.
type Options struct {
	// WriteQueue is the max number of concurrently admitted write
	// requests before shedding with 503 (default 64).
	WriteQueue int
	// RequestTimeout is the per-request deadline for JSON endpoints;
	// /v1/snapshot and /v1/metrics are exempt. 0 disables the deadline.
	RequestTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Replication mounts the WAL-shipping endpoints (/v1/wal,
	// /v1/failover, /v1/replica-of, /v1/snapshot?repl=1) and the epoch
	// plumbing over this node; nil serves unreplicated.
	Replication *repl.Node
	// MaxBody caps the request body of every JSON endpoint, in bytes;
	// oversized bodies answer 413 request_too_large (default
	// DefaultMaxBody). The NDJSON stream is exempt — it is bounded per
	// line by MaxLine instead, which is what makes unbounded feeds safe.
	MaxBody int64
	// MaxBatch caps both the query count of one /v1/query/batch request
	// and the resolve unit of the NDJSON stream (default
	// DefaultMaxBatch, the snapshot pool-amortization unit).
	MaxBatch int
	// MaxLine caps one NDJSON input line of /v1/resolve/stream, in
	// bytes (default DefaultMaxLine).
	MaxLine int
	// Match enables the match stage: /v1/match decides one-to-one
	// matches over the filtered candidates, and with Dirty set,
	// /v1/entities additionally returns each insert's duplicate
	// cluster. Nil serves filtering only (the match endpoints answer
	// 501 match_disabled).
	Match *MatchOptions
}

// MatchOptions configure the serving-side match stage.
type MatchOptions struct {
	// Config selects the post-filter scorer, decision threshold and
	// default assignment discipline.
	Config match.Config
	// Dirty turns on dirty-ER mode: the collection is treated as one
	// dirty source, every insert is decided against the pre-insert
	// snapshot, and the duplicate clusters are maintained incrementally
	// (and rebuilt from the resolver's state at startup, which is what
	// makes them survive snapshot load and WAL replay).
	Dirty bool
}

// Server wires a resolver (and optionally a durable store, or a
// replication node fronting one) to the HTTP route table with
// per-endpoint latency histograms, bounded write admission and panic
// containment.
type Server struct {
	res   *online.Resolver // consulted only when volatile: a store owns its current instance
	store *online.Store    // nil when volatile; the node's store when replicated
	repl  *repl.Node       // nil when unreplicated

	matcher *match.Decider  // nil unless Options.Match
	dirty   *match.Dirty    // nil unless Options.Match.Dirty
	topo    online.Topology // the deployment point, validated at construction

	admit    chan struct{} // bounded write-admission tokens
	start    time.Time
	reg      *metrics.Registry
	eps      map[string]*endpointStats
	panics   *metrics.Counter
	draining atomic.Bool
	timeout  time.Duration
	pprof    bool
	maxBody  int64
	maxBatch int
	maxLine  int
}

// endpointStats are the latency histogram and error counter of one
// endpoint. Count, mean, max and the p50/p95/p99 all derive from the
// histogram — there is no separate counter to drift out of sync.
type endpointStats struct {
	hist   *metrics.Histogram
	errors *metrics.Counter
}

// NewServer builds the serving state over a resolver and, in durable
// mode, its store (pass nil for volatile serving). With
// Options.Replication set the node is the whole backend — it fronts its
// own store — and res and store are ignored. A backend × options pairing
// online.Topology does not serve is refused with its *online.Refusal.
func NewServer(res *online.Resolver, store *online.Store, opt Options) (*Server, error) {
	if opt.Replication != nil {
		store = opt.Replication.Store()
	}
	if opt.WriteQueue <= 0 {
		opt.WriteQueue = 64
	}
	if opt.MaxBody <= 0 {
		opt.MaxBody = DefaultMaxBody
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	if opt.MaxLine <= 0 {
		opt.MaxLine = DefaultMaxLine
	}
	s := &Server{
		res: res, store: store, repl: opt.Replication, admit: make(chan struct{}, opt.WriteQueue),
		start: time.Now(), reg: metrics.NewRegistry(), eps: map[string]*endpointStats{},
		timeout: opt.RequestTimeout, pprof: opt.Pprof,
		maxBody: opt.MaxBody, maxBatch: opt.MaxBatch, maxLine: opt.MaxLine,
	}
	s.topo = s.Resolver().Topology()
	s.topo.Durable, s.topo.Replicated = store != nil, s.repl != nil
	s.topo.Follower = s.repl != nil && s.repl.Role() == repl.RoleFollower
	s.topo.Match, s.topo.Dirty = opt.Match != nil, opt.Match != nil && opt.Match.Dirty
	if err := s.topo.Validate(); err != nil {
		return nil, err
	}
	s.panics = s.reg.Counter("erserve_panics_total", "Handler panics recovered and answered with 500.", nil)
	s.reg.GaugeFunc("erserve_uptime_seconds", "Seconds since the daemon started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("erserve_write_queue_depth", "Admitted writes currently in flight.", nil,
		func() float64 { return float64(len(s.admit)) })
	s.reg.GaugeFunc("erserve_write_queue_capacity", "Write-admission queue capacity.", nil,
		func() float64 { return float64(cap(s.admit)) })
	s.reg.GaugeFunc("erserve_draining", "1 while shutting down, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	if s.repl != nil {
		s.repl.RegisterMetrics(s.reg)
	}
	if opt.Match != nil {
		res := s.Resolver()
		s.matcher = match.NewDecider(opt.Match.Config, res.Config())
		s.matcher.RegisterMetrics(s.reg)
		if opt.Match.Dirty {
			s.dirty = match.NewDirty(s.matcher)
			// Recover the cluster state from whatever the resolver holds
			// (snapshot load, WAL replay): decisions are pair-local, so
			// the rebuild lands on the same clusters the incremental path
			// maintained before the restart.
			s.dirty.Rebuild(res.Snapshot(), res.IDs(), online.QueryOptions{})
			s.dirty.RegisterMetrics(s.reg)
		}
	}
	return s, nil
}

// Topology returns the deployment point the server was built at (a
// replicated node's role as of construction).
func (s *Server) Topology() online.Topology { return s.topo }

// Resolver returns the resolver serving this request. A durable server
// resolves it through its store on every call: a follower's store swaps
// instances when it (re-)bootstraps.
func (s *Server) Resolver() *online.Resolver {
	if s.store != nil {
		return s.store.Resolver()
	}
	return s.res
}

// insertBatch and delete are the mutation path: through the replication
// node (leadership-gated, semi-sync acked) when replicated, the durable
// store's WAL when one is configured, the resolver itself otherwise.
func (s *Server) insertBatch(batch [][]entity.Attribute) ([]int64, error) {
	switch {
	case s.repl != nil:
		return s.repl.InsertBatch(batch)
	case s.store != nil:
		return s.store.InsertBatch(batch)
	}
	return s.res.InsertBatch(batch), nil
}

func (s *Server) delete(id int64) (bool, error) {
	switch {
	case s.repl != nil:
		return s.repl.Delete(id)
	case s.store != nil:
		return s.store.Delete(id)
	}
	return s.res.Delete(id), nil
}

// ready is write readiness: the node's role-aware verdict when
// replicated, the store's degradation state when durable, always ready
// when volatile.
func (s *Server) ready() (bool, error) {
	switch {
	case s.repl != nil:
		return s.repl.Ready()
	case s.store != nil:
		return s.store.Ready()
	}
	return true, nil
}

// SetDraining flips shutdown mode: /v1/readyz fails and writes are
// refused, while reads keep serving until the listener closes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// route is one row of the serving surface, registered only at its
// canonical /v1 pattern — the pre-/v1 aliases are retired and fall
// through to the enveloped 404.
type route struct {
	method  string
	pattern string // canonical path under /v1, with {id} wildcards
	name    string // endpoint label for metrics
	h       http.HandlerFunc
	raw     bool // exempt from the JSON request deadline (streaming or must-stay-reachable)
}

func (s *Server) routes() []route {
	rts := s.baseRoutes()
	if s.repl != nil {
		rts = append(rts, s.replRoutes()...)
	}
	return rts
}

func (s *Server) baseRoutes() []route {
	return []route{
		{"POST", "/v1/query", "query", s.handleQuery, false},
		{"POST", "/v1/query/batch", "query_batch", s.handleQueryBatch, false},
		{"POST", "/v1/resolve/stream", "resolve_stream", s.handleResolveStream, true},
		{"POST", "/v1/match", "match", s.handleMatch, false},
		{"GET", "/v1/clusters/{id}", "clusters", s.handleCluster, false},
		{"POST", "/v1/entities", "insert", s.admitWrite(s.handleInsert), false},
		{"GET", "/v1/entities/{id}", "get", s.handleGet, false},
		{"DELETE", "/v1/entities/{id}", "delete", s.admitWrite(s.handleDelete), false},
		{"GET", "/v1/stats", "stats", s.handleStats, false},
		{"GET", "/v1/healthz", "healthz", s.handleHealthz, false},
		{"GET", "/v1/readyz", "readyz", s.handleReadyz, false},
		{"GET", "/v1/snapshot", "snapshot", s.handleSnapshot, true},
		{"GET", "/v1/metrics", "metrics", s.handleMetrics, true},
	}
}

// Handler assembles the route tree. Each JSON endpoint is wrapped as
// instrument(timeoutJSON(handler)) — the per-request deadline sits
// *inside* the instrumentation, so a timed-out request is observed with
// its real duration and its real 503. /v1/snapshot streams the whole
// collection and /v1/metrics must stay reachable while handlers wedge,
// so neither runs under the deadline (the server-level write timeout
// bounds them instead). Unknown paths and method mismatches answer with
// the JSON error envelope like every other error.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := http.Handler(rt.h)
		if !rt.raw {
			// Body cap innermost, deadline around it.
			h = timeoutJSON(s.timeout, s.limitBody(h))
		}
		mux.Handle(rt.method+" "+rt.pattern, s.instrument(rt.name, h))
	}
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", s.instrument("unknown", http.HandlerFunc(s.handleUnknown)))
	return s.recoverPanics(mux)
}

// statusWriter records the response status for the error counters. It
// wraps the *outermost* writer of the middleware chain — outside
// http.TimeoutHandler — so a timed-out request is recorded with the 503
// the client actually received, never the inner handler's phantom 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers
// (/v1/snapshot) can push bytes incrementally; a non-flushing
// underlying writer makes it a no-op instead of a panic.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument is the outermost per-endpoint middleware: it observes the
// latency and final status of every request into the endpoint's
// histogram and error counter. It must wrap any timeout middleware, not
// sit inside it — that ordering is what makes deadline kills visible.
func (s *Server) instrument(name string, h http.Handler) http.HandlerFunc {
	st := &endpointStats{
		hist: s.reg.Histogram("erserve_http_request_duration_seconds",
			"End-to-end request latency as the client saw it.",
			metrics.Labels{"endpoint": name}, 1e-9),
		errors: s.reg.Counter("erserve_http_request_errors_total",
			"Requests answered with status >= 400, timeouts included.",
			metrics.Labels{"endpoint": name}),
	}
	s.eps[name] = st
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h.ServeHTTP(sw, r)
		st.hist.ObserveDuration(time.Since(begin))
		if sw.status >= 400 {
			st.errors.Inc()
		}
	}
}

// timeoutJSON bounds a JSON endpoint with http.TimeoutHandler and makes
// the timeout response the standard envelope: the Content-Type is
// pre-set on the real writer (the timeout path writes the body straight
// through, while the success path copies the inner handler's headers
// over it, so normal responses keep their own type).
func timeoutJSON(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	th := http.TimeoutHandler(h, d, envelopeBody(CodeDeadlineExceeded, "request deadline exceeded"))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// limitBody caps a JSON endpoint's request body with MaxBytesReader,
// so any read past the byte cap — the decoder's, a proxy copy's —
// fails with *http.MaxBytesError, which decodeJSON maps to 413. The
// raw routes are exempt: /v1/snapshot and /v1/metrics read no body,
// and /v1/resolve/stream is bounded per line, not per body.
func (s *Server) limitBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		h.ServeHTTP(w, r)
	})
}

// decodeJSON decodes a request body into v and, on failure, writes the
// enveloped error itself: 413 request_too_large when the body ran past
// the MaxBytesReader cap, 400 bad_request for malformed JSON. Callers
// return immediately on false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("request body exceeds the %d-byte cap", mbe.Limit))
		return false
	}
	writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("decoding request: %w", err))
	return false
}

// admitWrite gates mutating endpoints behind the bounded admission
// queue: when every token is taken the request is shed immediately with
// 503 + Retry-After instead of queueing unboundedly behind a slow disk.
func (s *Server) admitWrite(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, CodeDraining, errors.New("server is shutting down"))
			return
		}
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
			h(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, CodeOverloaded, errors.New("write queue full"))
		}
	}
}

// recoverPanics is the outermost middleware: a panicking handler answers
// 500 and increments a counter instead of killing the connection (or,
// without net/http's own recovery, the daemon).
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler { //nolint:errorlint // sentinel by contract
				panic(p)
			}
			s.panics.Inc()
			fmt.Fprintf(os.Stderr, "erserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			writeErr(w, http.StatusInternalServerError, CodeInternal, errors.New("internal error"))
		}()
		h.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errBody is the uniform envelope of every non-2xx response.
type errBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func envelopeBody(code, message string) string {
	var b errBody
	b.Error.Code = code
	b.Error.Message = message
	raw, _ := json.Marshal(b)
	return string(raw)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	var b errBody
	b.Error.Code = code
	b.Error.Message = err.Error()
	writeJSON(w, status, b)
}

// writeWriteError maps a durable-write failure: a degraded store is the
// service being read-only, anything else is unavailability with the
// store's own message. The write that *caused* the degradation returns
// the raw disk error, not ErrDegraded, so the store's readiness is
// consulted as well — by classification time the failure is sticky.
func (s *Server) writeWriteError(w http.ResponseWriter, err error) {
	if errors.Is(err, repl.ErrNotLeader) {
		writeErr(w, http.StatusServiceUnavailable, CodeNotLeader, err)
		return
	}
	code := CodeInternal
	if errors.Is(err, online.ErrDegraded) {
		code = CodeDegraded
	} else if ok, _ := s.ready(); !ok {
		code = CodeDegraded
	}
	writeErr(w, http.StatusServiceUnavailable, code, err)
}

// entityPayload is the attribute form shared by inserts and queries.
type entityPayload struct {
	Attrs map[string]string `json:"attrs"`
	Text  string            `json:"text"`
}

// attrs converts the payload to a deterministic attribute list. A bare
// "text" value becomes a single attribute named after the resolver's
// best attribute, so it works under both schema settings.
func (p *entityPayload) attrs(cfg online.Config) ([]entity.Attribute, error) {
	if len(p.Attrs) == 0 && p.Text == "" {
		return nil, errors.New(`payload needs "attrs" or "text"`)
	}
	attrs := online.AttrsFromMap(p.Attrs)
	if p.Text != "" {
		name := cfg.BestAttribute
		if name == "" {
			name = "text"
		}
		attrs = append(attrs, entity.Attribute{Name: name, Value: p.Text})
	}
	return attrs, nil
}

// queryBatch validates and converts a request's query list — shared by
// /v1/query/batch and /v1/match, which accept the same "queries" shape
// under the same per-request cap. On failure it writes the enveloped
// 400 itself and returns ok=false.
func (s *Server) queryBatch(w http.ResponseWriter, queries []entityPayload) ([][]entity.Attribute, bool) {
	if len(queries) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New(`"queries" must not be empty`))
		return nil, false
	}
	if len(queries) > s.maxBatch {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("%d queries exceeds the per-request cap of %d", len(queries), s.maxBatch))
		return nil, false
	}
	cfg := s.Resolver().Config()
	batch := make([][]entity.Attribute, len(queries))
	for i := range queries {
		attrs, err := queries[i].attrs(cfg)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("query %d: %w", i, err))
			return nil, false
		}
		batch[i] = attrs
	}
	return batch, true
}

// defaultQueryLimit caps the serialized candidate list when the request
// does not choose its own limit: an EpsJoin query with a permissive eps
// matches a large fraction of the collection, and without a cap the
// handler would serialize (and the client download) all of it.
// limit == 0 explicitly selects this default; limit < 0 is rejected.
const defaultQueryLimit = 1000

// Defaults of the ingestion bounds (Options.MaxBody/MaxBatch/MaxLine).
const (
	// DefaultMaxBody bounds a JSON request body. Generous for the
	// largest legitimate request — a full batch of queries — while
	// keeping a malicious or misrouted upload from buffering RAM.
	DefaultMaxBody = 8 << 20
	// DefaultMaxBatch bounds one /v1/query/batch request and sizes the
	// NDJSON stream's resolve unit, matching the snapshot layer's
	// pool-amortization batch; larger workloads split into multiple
	// requests (or stream).
	DefaultMaxBatch = 1024
	// DefaultMaxLine bounds one NDJSON record of /v1/resolve/stream.
	DefaultMaxLine = 1 << 20
)

// resolveANN validates the ANN knobs of a query request: "ef" widens
// the beam of an approximate (HNSW) index, "approx": false forces the
// exact brute-force oracle for that one query. Both are no-ops on an
// already-exact index, so clients can send them unconditionally.
func resolveANN(ef int, approx *bool) (online.QueryOptions, error) {
	if ef < 0 {
		return online.QueryOptions{}, fmt.Errorf("ef must be >= 0, got %d", ef)
	}
	return online.QueryOptions{Ef: ef, Exact: approx != nil && !*approx}, nil
}

// resolveLimit validates the request's candidate cap: negative is a
// client error, zero means "use the default".
func resolveLimit(limit int) (int, error) {
	if limit < 0 {
		return 0, fmt.Errorf("limit must be >= 0, got %d", limit)
	}
	if limit == 0 {
		return defaultQueryLimit, nil
	}
	return limit, nil
}

type traceJSON struct {
	Epoch      uint64 `json:"epoch"`
	EncodeUS   int64  `json:"encode_us"`
	SearchUS   int64  `json:"search_us"`
	Rounds     int    `json:"rounds"`
	Candidates int    `json:"candidates"`
}

func traceOf(tr online.Trace) *traceJSON {
	return &traceJSON{
		Epoch:      tr.Epoch,
		EncodeUS:   tr.Encode.Microseconds(),
		SearchUS:   tr.Search.Microseconds(),
		Rounds:     tr.Rounds,
		Candidates: tr.Candidates,
	}
}

// applyWhere parses a request's predicate DSL (empty src is a no-op)
// and folds it into the query options and serialization limit: the
// attribute predicate and score floor push down into the engine's
// pre-cut filter, `top N` overrides the JSON "limit" field, and
// `explain` asks for the normalized plan, implying the trace section.
func applyWhere(src string, opt *online.QueryOptions, limit int) (newLimit int, plan string, explain bool, err error) {
	if src == "" {
		return limit, "", false, nil
	}
	q, err := query.Parse(src)
	if err != nil {
		return 0, "", false, err
	}
	if q.Where != nil {
		opt.Predicate = q.Match
	}
	opt.MinScore = q.MinScore
	if q.Top > 0 {
		limit = q.Top
	}
	if q.Explain {
		plan = q.String()
	}
	return limit, plan, q.Explain, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		entityPayload
		requestOptions
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	ro, ok := s.resolveOptions(w, req.requestOptions)
	if !ok {
		return
	}
	res := s.Resolver()
	attrs, err := req.attrs(res.Config())
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.tagEpoch(w)
	snap := res.Snapshot()
	cands, tr := snap.QueryTraced(attrs, ro.opt)
	truncated := len(cands) > ro.limit
	if truncated {
		cands = cands[:ro.limit]
	}
	out := struct {
		Epoch      uint64     `json:"epoch"`
		Entities   int        `json:"entities"`
		Candidates []hit.Hit  `json:"candidates"`
		Truncated  bool       `json:"truncated,omitempty"`
		Plan       string     `json:"plan,omitempty"`
		Trace      *traceJSON `json:"trace,omitempty"`
	}{
		Epoch: snap.Epoch(), Entities: snap.Len(),
		Candidates: cands, Truncated: truncated, Plan: ro.plan,
	}
	if req.Trace || ro.explain {
		out.Trace = traceOf(tr)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQueryBatch answers many queries in one request against one
// consistent snapshot, amortizing the per-query pool checkout (and, on
// a sharded resolver, paying one scatter for the whole batch).
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Queries []entityPayload `json:"queries"`
		requestOptions
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	ro, ok := s.resolveOptions(w, req.requestOptions)
	if !ok {
		return
	}
	batch, ok := s.queryBatch(w, req.Queries)
	if !ok {
		return
	}
	s.tagEpoch(w)
	snap := s.Resolver().Snapshot()
	results, tr := snap.QueryBatch(batch, ro.opt)
	type result struct {
		Candidates []hit.Hit `json:"candidates"`
		Truncated  bool      `json:"truncated,omitempty"`
	}
	out := struct {
		Epoch    uint64     `json:"epoch"`
		Entities int        `json:"entities"`
		Results  []result   `json:"results"`
		Plan     string     `json:"plan,omitempty"`
		Trace    *traceJSON `json:"trace,omitempty"`
	}{Epoch: snap.Epoch(), Entities: snap.Len(), Results: make([]result, len(results)), Plan: ro.plan}
	for i, cands := range results {
		truncated := len(cands) > ro.limit
		if truncated {
			cands = cands[:ro.limit]
		}
		out.Results[i] = result{Candidates: cands, Truncated: truncated}
	}
	if req.Trace || ro.explain {
		out.Trace = traceOf(tr)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req struct {
		entityPayload
		Entities []entityPayload `json:"entities"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	res := s.Resolver()
	cfg := res.Config()
	var batch [][]entity.Attribute
	add := func(p *entityPayload) error {
		attrs, err := p.attrs(cfg)
		if err == nil {
			err = online.CheckEntity(attrs)
		}
		batch = append(batch, attrs)
		return err
	}
	refuse := func(err error) {
		if errors.Is(err, online.ErrEntityTooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, CodeEntityTooLarge, err)
		} else {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		}
	}
	if len(req.Entities) > 0 {
		for i := range req.Entities {
			if err := add(&req.Entities[i]); err != nil {
				refuse(fmt.Errorf("entity %d: %w", i, err))
				return
			}
		}
	} else if err := add(&req.entityPayload); err != nil {
		refuse(err)
		return
	}
	if s.dirty != nil {
		// Dirty-ER mode: each entity is decided against the pre-insert
		// snapshot and folded into the duplicate clusters, so the
		// response can name its own cluster.
		decs, err := s.dirty.InsertBatch(s.insertBatch,
			func() match.Snapshot { return res.Snapshot() }, batch, online.QueryOptions{})
		if err != nil {
			s.writeWriteError(w, err)
			return
		}
		ids := make([]int64, len(decs))
		results := make([]insertResultJSON, len(decs))
		for i, d := range decs {
			ids[i] = d.ID
			results[i] = insertResultJSON{ID: d.ID, Cluster: d.Cluster, Matches: d.Matches}
		}
		s.tagEpoch(w)
		writeJSON(w, http.StatusOK, map[string]any{
			"ids": ids, "epoch": res.Snapshot().Epoch(), "results": results,
		})
		return
	}
	ids, err := s.insertBatch(batch)
	if err != nil {
		s.writeWriteError(w, err)
		return
	}
	s.tagEpoch(w)
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "epoch": res.Snapshot().Epoch()})
}

func pathID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	attrs, ok := s.Resolver().Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("entity %d not resident", id))
		return
	}
	type attr struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	}
	out := struct {
		ID    int64  `json:"id"`
		Attrs []attr `json:"attrs"`
	}{ID: id, Attrs: make([]attr, len(attrs))}
	for i, a := range attrs {
		out.Attrs[i] = attr{Name: a.Name, Value: a.Value}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	ok, err := s.delete(id)
	if err != nil {
		s.writeWriteError(w, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("entity %d not resident", id))
		return
	}
	if s.dirty != nil {
		s.dirty.Delete(id)
	}
	s.tagEpoch(w)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "epoch": s.Resolver().Snapshot().Epoch()})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("repl") == "1" {
		if s.repl == nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("replication not enabled"))
			return
		}
		s.handleReplSnapshot(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.Resolver().Save(w); err != nil {
		// Headers are already sent; the truncated stream fails the
		// client-side checksum, so the replica never loads partial state.
		fmt.Fprintln(os.Stderr, "erserve: streaming snapshot:", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start)
	type ep struct {
		Count     int64   `json:"count"`
		Errors    int64   `json:"errors"`
		MeanUS    float64 `json:"mean_us"`
		P50US     float64 `json:"p50_us"`
		P95US     float64 `json:"p95_us"`
		P99US     float64 `json:"p99_us"`
		MaxUS     float64 `json:"max_us"`
		PerSecond float64 `json:"per_second"`
	}
	eps := map[string]ep{}
	for name, st := range s.eps {
		snap := st.hist.Snapshot()
		e := ep{Count: snap.Count, Errors: st.errors.Value(), MaxUS: float64(snap.Max) / 1e3}
		if snap.Count > 0 {
			e.MeanUS = snap.Mean() / 1e3
			e.P50US = float64(snap.Quantile(0.50)) / 1e3
			e.P95US = float64(snap.Quantile(0.95)) / 1e3
			e.P99US = float64(snap.Quantile(0.99)) / 1e3
			e.PerSecond = float64(snap.Count) / uptime.Seconds()
		}
		eps[name] = e
	}
	out := map[string]any{
		"resolver":  s.Resolver().Stats(),
		"endpoints": eps,
		"uptime_s":  uptime.Seconds(),
		"panics":    s.panics.Value(),
		"write_queue": map[string]int{
			"depth": len(s.admit), "capacity": cap(s.admit),
		},
	}
	if s.repl != nil {
		out["store"] = s.repl.Stats()
	} else if s.store != nil {
		out["store"] = s.store.Stats()
	}
	if s.matcher != nil {
		out["match"] = s.matcher.Stats()
	}
	if s.dirty != nil {
		out["clusters"] = s.dirty.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is write readiness: not ready while draining for
// shutdown or while the store is degraded to read-only after a WAL disk
// failure. Load balancers should route writes only to ready replicas;
// reads keep working either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.repl != nil {
		// The role rides even on 503s: a proxy probing not-ready replicas
		// still learns which one leads.
		w.Header().Set(repl.HeaderRole, s.repl.Role().String())
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, CodeDraining, errors.New("draining: shutting down"))
		return
	}
	if ok, reason := s.ready(); !ok {
		code := readyCode(reason)
		msg := fmt.Errorf("not ready: %w", reason)
		if code == CodeDegraded {
			msg = fmt.Errorf("degraded read-only: %w", reason)
		}
		writeErr(w, http.StatusServiceUnavailable, code, msg)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ready")
}

// handleUnknown is the fallback for everything the route table does not
// serve: a method mismatch on a known path answers 405 with an Allow
// header, anything else 404 — both in the standard envelope. (The
// catch-all registration means the mux's own text 405/404 bodies are
// never emitted.)
func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	if allow := s.allowedMethods(r.URL.Path); len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
		writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
		return
	}
	writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// allowedMethods reports which methods the route table serves at path.
func (s *Server) allowedMethods(path string) []string {
	var allow []string
	for _, rt := range s.routes() {
		if pathMatches(rt.pattern, path) {
			allow = append(allow, rt.method)
		}
	}
	return allow
}

// pathMatches tests a concrete request path against a route pattern,
// treating {name} segments as single-segment wildcards.
func pathMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	qs := strings.Split(path, "/")
	if len(ps) != len(qs) {
		return false
	}
	for i := range ps {
		if strings.HasPrefix(ps[i], "{") && strings.HasSuffix(ps[i], "}") {
			if qs[i] == "" {
				return false
			}
			continue
		}
		if ps[i] != qs[i] {
			return false
		}
	}
	return true
}

// handleMetrics serves the Prometheus text exposition of everything the
// process measures: endpoint latency histograms, resolver telemetry
// and, in durable mode, the WAL's fsync and group-commit distributions.
// The resolver's and the store's series are registered per scrape from
// the current resolver and log instances, so they follow a follower
// through bootstrap, re-bootstrap and promotion instead of freezing on
// the instances alive at startup — and are the same set in every role.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cur := metrics.NewRegistry()
	s.Resolver().RegisterMetrics(cur)
	if s.store != nil {
		s.store.RegisterMetrics(cur)
	}
	if err := errors.Join(s.reg.WriteText(w), cur.WriteText(w)); err != nil {
		fmt.Fprintln(os.Stderr, "erserve: writing /metrics:", err)
	}
}
