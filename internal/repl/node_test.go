package repl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/online"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/wal"
)

func testConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3, Clean: true,
	}
}

func testBatch(vals ...string) [][]entity.Attribute {
	batch := make([][]entity.Attribute, len(vals))
	for i, v := range vals {
		batch[i] = []entity.Attribute{{Name: "text", Value: v}}
	}
	return batch
}

// TestNewLeaderRefusesPartitionedStore: the shipped WAL stream is a
// single log, so a store over more than one shard cannot lead.
func TestNewLeaderRefusesPartitionedStore(t *testing.T) {
	st, err := online.OpenStore("node", testConfig(), 2, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close()
	if _, err := NewLeader(st, Options{ID: "me"}); err == nil || !strings.Contains(err.Error(), "-shards 1") {
		t.Fatalf("NewLeader over 2 shards: %v, want the -shards 1 refusal", err)
	}
}

func TestNewLeaderDeposedByForeignLease(t *testing.T) {
	leaseFS := faultfs.NewMem()
	if _, err := NewLease(leaseFS, "shared", "leader.lease").Take("other"); err != nil {
		t.Fatalf("pre-claim lease: %v", err)
	}
	st, err := online.OpenStore("node", testConfig(), 1, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	n, err := NewLeader(st, Options{ID: "me", Lease: NewLease(leaseFS, "shared", "leader.lease")})
	if err != nil {
		t.Fatalf("new leader: %v", err)
	}
	defer n.Close()
	if n.Role() != RoleDeposed {
		t.Fatalf("role = %s, want deposed: someone else holds a higher term", n.Role())
	}
	if _, err := n.InsertBatch(testBatch("x")); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("insert on deposed node: %v, want ErrNotLeader", err)
	}
	if ok, err := n.Ready(); ok || !errors.Is(err, ErrNotLeader) {
		t.Fatalf("ready on deposed node = %v, %v; want false with ErrNotLeader", ok, err)
	}
}

func TestLeaderSelfFencesOnLeaseLoss(t *testing.T) {
	leaseFS := faultfs.NewMem()
	st, err := online.OpenStore("node", testConfig(), 1, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	n, err := NewLeader(st, Options{
		ID:              "a",
		Lease:           NewLease(leaseFS, "shared", "leader.lease"),
		LeaseCheckEvery: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("new leader: %v", err)
	}
	defer n.Close()
	if _, err := n.InsertBatch(testBatch("alpha")); err != nil {
		t.Fatalf("insert while leading: %v", err)
	}
	if got := n.Term(); got != 1 {
		t.Fatalf("leader term = %d, want 1", got)
	}

	// Another node claims the lease out from under us; the next write
	// re-reads the file and deposes this node in place.
	if _, err := NewLease(leaseFS, "shared", "leader.lease").Take("b"); err != nil {
		t.Fatalf("foreign take: %v", err)
	}
	time.Sleep(time.Millisecond)
	if _, err := n.InsertBatch(testBatch("beta")); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("insert after lease loss: %v, want ErrNotLeader", err)
	}
	if n.Role() != RoleDeposed {
		t.Fatalf("role after lease loss = %s, want deposed", n.Role())
	}
	// Reads keep serving the last-known state.
	if n.Resolver().Len() != 1 {
		t.Fatalf("deposed resolver lost state: %d entities, want 1", n.Resolver().Len())
	}
}

func TestSemiSyncWriteTimesOutWithoutFollowers(t *testing.T) {
	st, err := online.OpenStore("node", testConfig(), 1, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	n, err := NewLeader(st, Options{AckReplicas: 1, AckTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("new leader: %v", err)
	}
	defer n.Close()
	_, err = n.InsertBatch(testBatch("lonely"))
	if err == nil || !strings.Contains(err.Error(), "unacknowledged") {
		t.Fatalf("semi-sync write with no followers: %v, want unacknowledged timeout", err)
	}
	// The write is durable regardless: only the ack was withheld.
	if n.Resolver().Len() != 1 {
		t.Fatalf("timed-out write not durable: %d entities, want 1", n.Resolver().Len())
	}
	// A follower fetching past the log end acks everything below it.
	n.ObserveFetch("f1", wal.Position{Seg: 1 << 40})
	if _, err := n.InsertBatch(testBatch("acked")); err != nil {
		t.Fatalf("semi-sync write with an acking follower: %v", err)
	}
}
