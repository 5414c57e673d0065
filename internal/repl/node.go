package repl

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
	"erfilter/internal/wal"
)

// Options tune a replication node; the zero value is a lease-less
// leader with asynchronous replication.
type Options struct {
	// ID names this node — in acks, the lease file and logs. Use the
	// advertised address.
	ID string
	// Lease is the shared leader arbiter; nil disables lease fencing
	// (terms still ride the WAL, bumped at promotion).
	Lease *Lease
	// AckReplicas > 0 makes writes semi-synchronous: a write returns
	// only after that many distinct followers have fetched past its log
	// position (their next fetch's from= is the durable ack).
	AckReplicas int
	// AckTimeout bounds the semi-sync wait (default 5s). A timed-out
	// write is locally durable but unacknowledged; the client retries.
	AckTimeout time.Duration
	// LeaseCheckEvery is how stale the leader's cached lease view may
	// grow before the write path re-reads the file (default 500ms).
	LeaseCheckEvery time.Duration
	// MaxLag fails a follower's readiness when its tailer has made no
	// upstream progress for this long (default 10s).
	MaxLag time.Duration
	// MaxLagBytes fails a follower's readiness when its estimated byte
	// lag behind the leader exceeds this (default 4 MiB).
	MaxLagBytes int64
}

func (o Options) withDefaults() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.LeaseCheckEvery <= 0 {
		o.LeaseCheckEvery = 500 * time.Millisecond
	}
	if o.MaxLag <= 0 {
		o.MaxLag = 10 * time.Second
	}
	if o.MaxLagBytes <= 0 {
		o.MaxLagBytes = 4 << 20
	}
	return o
}

// Node is one replica's role state machine over its one durable store.
// It fronts the store for the serving layer — writes are gated on
// leadership, reads pass straight through — and carries the replication
// bookkeeping: follower fetch positions on the leader, lag gauges on a
// follower. The store is the same object in every role; a role change
// never replaces it.
type Node struct {
	opt   Options
	store *online.Store

	mu   sync.Mutex
	role Role

	upstream atomic.Value // string: the leader URL a follower tails

	lastLease atomic.Int64 // unixnano of the last lease re-read

	ackMu   sync.Mutex
	ackCond *sync.Cond
	acks    map[string]wal.Position

	lagBytes     atomic.Int64
	lastProgress atomic.Int64 // unixnano of the tailer's last good round
	tailErr      atomic.Value // string: last tailer error, for stats

	deposals atomic.Uint64
}

// NewLeader fronts an opened durable store as the leader. With a lease,
// the node first consults it: a lease held by someone else at a term
// above the store's own means this process was deposed while down, and
// it comes up read-only; otherwise the lease is (re)taken and the new
// term appended to the log. A follower's directory started as a leader
// is a promotion by restart and begins a new reign the same way.
func NewLeader(st *online.Store, opt Options) (*Node, error) {
	n, err := newNode(st, opt, RoleLeader)
	if err != nil {
		return nil, err
	}
	term := st.Term()
	if st.Following() {
		term++
	}
	if l := n.opt.Lease; l != nil {
		held, owner, err := l.Read()
		if err != nil {
			return nil, err
		}
		if owner != "" && owner != n.opt.ID && held > st.Term() {
			n.role = RoleDeposed
			return n, nil
		}
		if term, err = l.Take(n.opt.ID); err != nil {
			return nil, err
		}
		n.lastLease.Store(time.Now().UnixNano())
	}
	if err := st.Promote(term); err != nil {
		return nil, err
	}
	return n, nil
}

// NewFollower fronts a store as a read replica. The node serves stale-ok
// reads of whatever the directory held immediately, rejects writes, and
// is not ready until a Tailer has bootstrapped it from a leader.
func NewFollower(st *online.Store, opt Options) (*Node, error) {
	return newNode(st, opt, RoleFollower)
}

// newNode builds a node in the given role, unless online.Topology refuses
// that role over this store.
func newNode(st *online.Store, opt Options, role Role) (*Node, error) {
	t := st.Resolver().Topology()
	t.Durable, t.Replicated, t.Follower = true, true, role == RoleFollower
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := &Node{opt: opt.withDefaults(), store: st, role: role, acks: map[string]wal.Position{}}
	n.ackCond = sync.NewCond(&n.ackMu)
	n.upstream.Store("")
	n.tailErr.Store("")
	n.lastProgress.Store(time.Now().UnixNano()) // a follower's readiness clock starts now
	return n, nil
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Store returns the node's durable store — the same one in every role.
func (n *Node) Store() *online.Store { return n.store }

// Term returns the node's fencing term.
func (n *Node) Term() uint64 { return n.store.Term() }

// Resolver returns the store's read surface. The instance changes when a
// follower (re-)bootstraps; fetch it per call.
func (n *Node) Resolver() *online.Resolver { return n.store.Resolver() }

// LogPos is the node's replication epoch: the durable end of its log —
// written on a leader, mirrored on a follower. A write acked at position
// p is readable on any node whose LogPos is >= p. A replica awaiting its
// first bootstrap holds no position in any leader's log, whatever its
// directory's own log says, and reports the zero position.
func (n *Node) LogPos() wal.Position {
	if n.Role() == RoleFollower && !n.store.Following() {
		return wal.Position{}
	}
	return n.store.LogPos()
}

// leaderStore returns the store iff this node currently holds
// leadership, re-reading the lease when the cached view is older than
// LeaseCheckEvery. Observing a higher term deposes the node in place.
func (n *Node) leaderStore() (*online.Store, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.role {
	case RoleFollower:
		return nil, fmt.Errorf("%w: this replica follows the leader", ErrNotLeader)
	case RoleDeposed:
		return nil, fmt.Errorf("%w: deposed by a higher term", ErrNotLeader)
	}
	if l := n.opt.Lease; l != nil {
		now := time.Now().UnixNano()
		if now-n.lastLease.Load() > int64(n.opt.LeaseCheckEvery) {
			term, owner, err := l.Read()
			if err == nil && owner != n.opt.ID && term > n.store.Term() {
				n.role = RoleDeposed
				n.deposals.Add(1)
				return nil, fmt.Errorf("%w: lease term %d taken by %s", ErrNotLeader, term, owner)
			}
			// A transient lease read error keeps the cached view: the
			// authoritative fence is the term in the WAL stream.
			n.lastLease.Store(now)
		}
	}
	return n.store, nil
}

// InsertBatch appends the batch through the leader's WAL, then, with
// AckReplicas > 0, waits for that many followers to fetch past it.
func (n *Node) InsertBatch(batch [][]entity.Attribute) ([]int64, error) {
	st, err := n.leaderStore()
	if err != nil {
		return nil, err
	}
	ids, err := st.InsertBatch(batch)
	if err != nil {
		return nil, err
	}
	if err := n.waitAcks(st.LogPos()); err != nil {
		return nil, err
	}
	return ids, nil
}

// Delete tombstones the entity through the leader's WAL, with the same
// semi-sync ack rule as InsertBatch.
func (n *Node) Delete(id int64) (bool, error) {
	st, err := n.leaderStore()
	if err != nil {
		return false, err
	}
	ok, err := st.Delete(id)
	if err != nil || !ok {
		return ok, err
	}
	return true, n.waitAcks(st.LogPos())
}

// ObserveFetch records a follower's durable position: the from= of its
// WAL fetch acknowledges everything below it. Semi-sync writes block on
// these.
func (n *Node) ObserveFetch(id string, pos wal.Position) {
	if id == "" {
		return
	}
	n.ackMu.Lock()
	if old, ok := n.acks[id]; !ok || old.Less(pos) {
		n.acks[id] = pos
		n.ackCond.Broadcast()
	}
	n.ackMu.Unlock()
}

// waitAcks blocks until AckReplicas distinct followers have fetched to
// or past pos, or AckTimeout elapses. The write is locally durable
// either way; a timeout just withholds the ack.
func (n *Node) waitAcks(pos wal.Position) error {
	need := n.opt.AckReplicas
	if need <= 0 {
		return nil
	}
	var fired atomic.Bool
	t := time.AfterFunc(n.opt.AckTimeout, func() {
		fired.Store(true)
		n.ackMu.Lock()
		n.ackCond.Broadcast()
		n.ackMu.Unlock()
	})
	defer t.Stop()
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	for {
		got := 0
		for _, p := range n.acks {
			if !p.Less(pos) {
				got++
			}
		}
		if got >= need {
			return nil
		}
		if fired.Load() {
			return fmt.Errorf("repl: write durable but unacknowledged: %d/%d follower acks past %s within %s",
				got, need, pos, n.opt.AckTimeout)
		}
		n.ackCond.Wait()
	}
}

// ReadLog serves a raw durable log range to a follower; leader only.
func (n *Node) ReadLog(pos wal.Position, max int) (data []byte, at, next wal.Position, err error) {
	st, err := n.leaderStore()
	if err != nil {
		return nil, wal.Position{}, wal.Position{}, err
	}
	return st.ReadLog(pos, max)
}

// WaitLog long-poll-parks until the leader's log grows past pos.
func (n *Node) WaitLog(pos wal.Position, d time.Duration) bool {
	st, err := n.leaderStore()
	if err != nil {
		return false
	}
	return st.WaitLog(pos, d)
}

// ReplSnapshot begins a follower bootstrap from this leader.
func (n *Node) ReplSnapshot() (pos wal.Position, term uint64, save func(io.Writer) error, err error) {
	st, err := n.leaderStore()
	if err != nil {
		return wal.Position{}, 0, nil, err
	}
	return st.ReplSnapshot()
}

// Promote turns a follower into the leader: the lease is taken (or,
// without one, the local term bumped) and the store is promoted in
// place — the new term durably appended to the very log it mirrored, the
// fence every other replica will observe in-stream. Idempotent on a node
// that already leads; refused on a deposed ex-leader, whose log may have
// diverged past the fence, and — before the lease is touched — on a
// replica that has never bootstrapped: whatever its directory holds
// (nothing, an earlier reign's state, a half-installed cut) is no
// leader's collection, and electing it would lose every acked write.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.role {
	case RoleLeader:
		return n.store.Term(), nil
	case RoleDeposed:
		return 0, fmt.Errorf("%w: a deposed leader cannot be promoted; wipe its directory and re-follow", ErrNotLeader)
	}
	if !n.store.Following() {
		return 0, fmt.Errorf("%w: awaiting first bootstrap, nothing to promote", ErrStale)
	}
	term := n.store.Term() + 1
	if l := n.opt.Lease; l != nil {
		t, err := l.Take(n.opt.ID)
		if err != nil {
			return 0, err
		}
		term = t
	}
	if err := n.store.Promote(term); err != nil {
		return 0, err
	}
	n.role = RoleLeader
	n.upstream.Store("")
	n.tailErr.Store("")
	n.lagBytes.Store(0)
	n.lastLease.Store(time.Now().UnixNano())
	return term, nil
}

// SetUpstream points a follower's tailer at a (new) leader URL, the
// /v1/replica-of re-parenting used after failover.
func (n *Node) SetUpstream(u string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleFollower {
		return fmt.Errorf("repl: %s does not follow an upstream", n.role)
	}
	n.upstream.Store(u)
	return nil
}

// Upstream returns the leader URL a follower tails ("" when unset or
// not a follower).
func (n *Node) Upstream() string { return n.upstream.Load().(string) }

// noteTail records a successful tailer round: the estimated byte lag
// behind the leader and the progress timestamp readiness checks.
func (n *Node) noteTail(lag int64) {
	if lag < 0 {
		lag = 0
	}
	n.lagBytes.Store(lag)
	n.lastProgress.Store(time.Now().UnixNano())
	n.tailErr.Store("")
}

// noteTailError records a failed tailer round for stats; progress time
// is left alone, so persistent failure trips the MaxLag readiness bound.
func (n *Node) noteTailError(err error) { n.tailErr.Store(err.Error()) }

// Ready is role-aware readiness: a leader must hold leadership and an
// undegraded store; a follower must be bootstrapped, recently in touch
// with its upstream and within the byte-lag bound; a deposed leader is
// never ready. Reads keep serving in every not-ready state.
func (n *Node) Ready() (bool, error) {
	switch n.Role() {
	case RoleDeposed:
		return false, fmt.Errorf("%w: deposed by a higher term", ErrNotLeader)
	case RoleFollower:
		if !n.store.Following() {
			return false, fmt.Errorf("%w: awaiting first bootstrap", ErrStale)
		}
		if silent := time.Duration(time.Now().UnixNano() - n.lastProgress.Load()); silent > n.opt.MaxLag {
			return false, fmt.Errorf("%w: no upstream progress for %s (bound %s)", ErrStale, silent.Round(time.Millisecond), n.opt.MaxLag)
		}
		if lag := n.lagBytes.Load(); lag > n.opt.MaxLagBytes {
			return false, fmt.Errorf("%w: %d bytes behind the leader (bound %d)", ErrStale, lag, n.opt.MaxLagBytes)
		}
		return true, nil
	}
	if _, err := n.leaderStore(); err != nil {
		return false, err
	}
	return n.store.Ready()
}

// NodeStats summarizes the node for /v1/stats.
type NodeStats struct {
	Role     string `json:"role"`
	Term     uint64 `json:"term"`
	Pos      string `json:"pos"`
	Upstream string `json:"upstream,omitempty"`
	// Followers maps follower ids to their last observed fetch position
	// (leader only).
	Followers map[string]string `json:"followers,omitempty"`
	LagBytes  int64             `json:"lag_bytes,omitempty"`
	TailError string            `json:"tail_error,omitempty"`
	Deposals  uint64            `json:"deposals,omitempty"`
	Store     online.StoreStats `json:"store"`
}

// Stats summarizes the node and its store. The follower-side fields
// (upstream, lag, tail error) are empty on a leader and the fetch
// positions empty on a follower, so one shape serves every role.
func (n *Node) Stats() any {
	out := NodeStats{
		Role: n.Role().String(), Term: n.Term(), Pos: n.LogPos().String(),
		Upstream: n.Upstream(), LagBytes: n.lagBytes.Load(), TailError: n.tailErr.Load().(string),
		Deposals: n.deposals.Load(), Store: n.store.Stats(),
	}
	n.ackMu.Lock()
	if len(n.acks) > 0 {
		out.Followers = make(map[string]string, len(n.acks))
		for id, p := range n.acks {
			out.Followers[id] = p.String()
		}
	}
	n.ackMu.Unlock()
	return out
}

// RegisterMetrics contributes the replication gauges. The store's own
// series are the same in every role and registered by the serving layer
// (per scrape, from Store()).
func (n *Node) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("erserve_repl_role", "Replication role: 0 leader, 1 follower, 2 deposed.", nil,
		func() float64 { return float64(n.Role()) })
	reg.GaugeFunc("erserve_repl_term", "Current replication fencing term.", nil,
		func() float64 { return float64(n.Term()) })
	reg.GaugeFunc("erserve_repl_lag_bytes", "Estimated byte lag behind the leader (followers).", nil,
		func() float64 { return float64(n.lagBytes.Load()) })
	reg.GaugeFunc("erserve_repl_seconds_since_progress", "Seconds since the tailer last made progress (followers).", nil,
		func() float64 {
			if n.Role() != RoleFollower {
				return 0
			}
			return time.Duration(time.Now().UnixNano() - n.lastProgress.Load()).Seconds()
		})
}

// Close checkpoints and closes the node's store.
func (n *Node) Close() error { return n.store.Close() }
