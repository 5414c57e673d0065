package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"erfilter/internal/retry"
	"erfilter/internal/wal"
)

// maxChunk caps the tailer's adaptive fetch window at the WAL's own
// record bound plus framing, so any single record fits in one fetch.
const maxChunk = (1 << 26) + 64

// TailerOptions tune a follower's pull loop; the zero value is
// production-ready. Requests go through http.DefaultClient, which has
// no overall timeout: WAL fetches long-poll.
type TailerOptions struct {
	// Wait is the long-poll park a caught-up fetch requests (default 2s).
	Wait time.Duration
	// Retry shapes the backoff between failed rounds (default: full
	// jitter, 50ms base doubling to a 2s cap, no elapsed budget).
	Retry retry.Policy
}

func (o TailerOptions) withDefaults() TailerOptions {
	if o.Wait <= 0 {
		o.Wait = 2 * time.Second
	}
	if o.Retry.Cap <= 0 {
		o.Retry.Cap = 2 * time.Second
	}
	return o
}

// Tailer is a follower's replication loop: bootstrap once, then fetch,
// fsync-append and apply the leader's log forever, backing off with
// jitter on failure. It exits on Close or when its node stops being a
// follower (promotion).
type Tailer struct {
	n      *Node
	opt    TailerOptions
	chunk  int // fetch window; doubled transiently when a record straddles it
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// StartTailer launches the pull loop for n (a follower node) and
// returns its handle.
func StartTailer(n *Node, opt TailerOptions) *Tailer {
	ctx, cancel := context.WithCancel(context.Background())
	t := &Tailer{n: n, opt: opt.withDefaults(), chunk: wal.DefaultReadChunk, cancel: cancel, done: make(chan struct{})}
	go t.run(ctx)
	return t
}

// Close stops the loop and waits for it to exit.
func (t *Tailer) Close() {
	t.once.Do(t.cancel)
	<-t.done
}

func (t *Tailer) run(ctx context.Context) {
	defer close(t.done)
	b := retry.NewBackoff(t.opt.Retry)
	for ctx.Err() == nil {
		if t.n.Role() != RoleFollower {
			return
		}
		if err := t.step(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			t.n.noteTailError(err)
			if !b.Sleep(ctx) {
				if ctx.Err() != nil {
					return
				}
				b.Reset()
			}
			continue
		}
		b.Reset()
	}
}

// step performs one replication round: bootstrap when unanchored,
// otherwise one WAL fetch-and-apply.
func (t *Tailer) step(ctx context.Context) error {
	up := t.n.Upstream()
	if up == "" {
		return errors.New("repl: no upstream configured (POST /v1/replica-of)")
	}
	st := t.n.store
	if !st.Following() {
		return t.bootstrap(ctx, up)
	}
	pos := st.LogPos()
	q := url.Values{}
	q.Set("from", pos.String())
	q.Set("max", strconv.Itoa(t.chunk))
	q.Set("wait", strconv.FormatInt(t.opt.Wait.Milliseconds(), 10))
	if t.n.opt.ID != "" {
		q.Set("id", t.n.opt.ID)
	}
	resp, err := t.get(ctx, up+"/v1/wal?"+q.Encode())
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The leader trimmed past our position: the snapshot has absorbed
		// it. Start over from a fresh bootstrap.
		return t.bootstrap(ctx, up)
	case http.StatusConflict:
		// Our position is beyond the leader's log: we hold bytes from a
		// deposed reign the new leader never had. Re-bootstrapping wipes
		// every local segment and restarts from the snapshot boundary.
		return t.bootstrap(ctx, up)
	default:
		return fmt.Errorf("repl: fetching wal from %s: %s", up, resp.Status)
	}
	term, err := headerTerm(resp)
	if err != nil {
		return err
	}
	if local := st.Term(); term < local {
		return fmt.Errorf("repl: refusing stream from deposed leader %s: term %d < local %d", up, term, local)
	}
	at, err := wal.ParsePosition(resp.Header.Get(HeaderAt))
	if err != nil {
		return fmt.Errorf("repl: bad %s header: %w", HeaderAt, err)
	}
	end, err := wal.ParsePosition(resp.Header.Get(HeaderEnd))
	if err != nil {
		return fmt.Errorf("repl: bad %s header: %w", HeaderEnd, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: reading wal body: %w", err)
	}
	if len(body) == 0 {
		// Caught up; the long poll elapsed idle.
		t.n.noteTail(lag(end, pos))
		return nil
	}
	n, err := st.Apply(at, body)
	if err != nil {
		return err
	}
	if n == 0 {
		// A record straddles the window; widen it for the next round.
		if t.chunk < maxChunk {
			t.chunk = min(t.chunk*2, maxChunk)
		} else {
			return fmt.Errorf("repl: no complete frame within %d bytes at %s", t.chunk, at)
		}
		return nil
	}
	t.chunk = wal.DefaultReadChunk
	t.n.noteTail(lag(end, st.LogPos()))
	return nil
}

// bootstrap streams a full snapshot from the leader and anchors the
// follower at its rotation-boundary position.
func (t *Tailer) bootstrap(ctx context.Context, up string) error {
	resp, err := t.get(ctx, up+"/v1/snapshot?repl=1")
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: bootstrap from %s: %s", up, resp.Status)
	}
	term, err := headerTerm(resp)
	if err != nil {
		return err
	}
	if local := t.n.store.Term(); term < local {
		return fmt.Errorf("repl: refusing bootstrap from deposed leader %s: term %d < local %d", up, term, local)
	}
	pos, err := wal.ParsePosition(resp.Header.Get(HeaderReplPos))
	if err != nil {
		return fmt.Errorf("repl: bad %s header: %w", HeaderReplPos, err)
	}
	if err := t.n.store.Bootstrap(pos, term, resp.Body); err != nil {
		return err
	}
	t.n.noteTail(0)
	return nil
}

func (t *Tailer) get(ctx context.Context, u string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// lag estimates how many bytes of log separate a follower position from
// the leader's end. Sealed segment sizes are not known follower-side,
// so cross-segment distance assumes full default-sized segments — an
// overestimate that errs toward reporting staleness.
func lag(end, pos wal.Position) int64 {
	if !pos.Less(end) {
		return 0
	}
	return int64(end.Seg-pos.Seg)*wal.DefaultSegmentBytes + (end.Off - pos.Off)
}

func headerTerm(resp *http.Response) (uint64, error) {
	term, err := strconv.ParseUint(resp.Header.Get(HeaderTerm), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: bad %s header: %w", HeaderTerm, err)
	}
	return term, nil
}

// drain discards any unread body so the HTTP connection is reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
