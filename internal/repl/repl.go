// Package repl is the replication control plane over the durable online
// store: WAL-shipping from one leader to read-only followers, a
// file-based leader lease with monotonic fencing terms, and explicit
// (operator- or proxy-driven) failover.
//
// The data plane is deliberately thin — a follower is the same durable
// store as its leader, fed by the network instead of local writes: it
// appends the leader's log bytes verbatim (wal.WAL.AppendRaw via
// online.Store.Apply), so its segment files are a byte-for-byte prefix
// of the leader's, and promotion flips the store's role in place — same
// store, same log — rather than rebuilding or handing off state. The
// pieces here are:
//
//   - Lease: the on-disk arbiter naming the current leader and its
//     fencing term. Taking the lease bumps the term; the term is
//     appended into the WAL stream itself (online.Store.Promote), so
//     every follower learns reigns from the log and recognizes a
//     deposed leader's stream as stale.
//   - Node: the role state machine (leader / follower / deposed) over
//     the node's one store, fronting it for the serving layer. It gates
//     writes on leadership (re-checking the lease at a bounded
//     cadence), tracks follower fetch positions for semi-synchronous
//     acks, and reports role-aware readiness: a deposed leader and a
//     lagging follower both fail /v1/readyz while continuing to serve
//     stale reads.
//   - Tailer: the follower's pull loop. It bootstraps from a streamed
//     leader snapshot (anchored at a log rotation boundary), then tails
//     /v1/wal with long-polls, retrying with jittered exponential
//     backoff (internal/retry). A trimmed (410) or diverged (409)
//     position triggers a full re-bootstrap; a response carrying a term
//     below the follower's own is a deposed leader and is refused.
//
// Positions in the log double as epochs: a write acked at position p is
// readable on any replica whose applied position is >= p, which is what
// the serving layer's X-ER-Epoch header and min_epoch request field
// check against.
package repl

import (
	"errors"
	"fmt"
)

// Wire constants of the replication protocol: query parameters and
// headers of GET /v1/wal and GET /v1/snapshot?repl=1. They live here so
// the tailer (client side) and the serving layer (server side) cannot
// drift apart.
const (
	// HeaderTerm carries the sender's fencing term on WAL and snapshot
	// responses; a follower refuses bytes from a term below its own.
	HeaderTerm = "X-ER-Term"
	// HeaderAt is the position at which a WAL response's bytes start
	// (ReadAt may skip a sealed-segment boundary past the requested from).
	HeaderAt = "X-ER-At"
	// HeaderNext is the position to fetch from after applying the body.
	HeaderNext = "X-ER-Next"
	// HeaderEnd is the leader's durable log end at response time — the
	// follower's lag is the distance from its own position to this.
	HeaderEnd = "X-ER-End"
	// HeaderReplPos anchors a bootstrap snapshot: the rotation-boundary
	// position the snapshot's state corresponds to.
	HeaderReplPos = "X-ER-Repl-Pos"
	// HeaderEpoch tags every query and write response with the replica's
	// current log position, the token for read-your-writes.
	HeaderEpoch = "X-ER-Epoch"
	// HeaderRole reports a replica's role on /v1/readyz (also on 503s,
	// so a proxy can find the leader among not-ready replicas).
	HeaderRole = "X-ER-Role"
)

// ErrNotLeader rejects writes and replication reads on a node that is
// not the leader — a follower, or a leader deposed by a higher term.
var ErrNotLeader = errors.New("repl: not the leader")

// ErrStale marks a follower whose replication lag exceeds the
// configured bound; reads still serve, readiness fails.
var ErrStale = errors.New("repl: follower is stale")

// Role is a node's position in the replication topology.
type Role int32

const (
	// RoleLeader accepts writes and serves the WAL to followers.
	RoleLeader Role = iota
	// RoleFollower applies the leader's log and serves stale-ok reads.
	RoleFollower
	// RoleDeposed is an ex-leader fenced by a higher term: read-only,
	// not ready, awaiting operator replacement.
	RoleDeposed
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	case RoleDeposed:
		return "deposed"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}
