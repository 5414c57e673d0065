package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	cases := map[int]int{-1: runtime.GOMAXPROCS(0), 0: runtime.GOMAXPROCS(0), 1: 1, 7: 7}
	for in, want := range cases {
		if got := Workers(in); got != want {
			t.Errorf("Workers(%d) = %d, want %d", in, got, want)
		}
	}
	// GOMAXPROCS=1 must mean one worker, however many CPUs the host has:
	// it is how a benchmark run asks for single-core timings.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) at GOMAXPROCS 1 = %d, want 1", got)
	}
}

// TestRangesCoverInOrder holds Ranges to the loop it replaces: at every
// GOMAXPROCS and length the ranges tile [0, n) in order, none is empty,
// and the results come back in range order.
func TestRangesCoverInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 31, 32, 33, 1000} {
			got := Ranges(n, func(lo, hi int) [2]int { return [2]int{lo, hi} })
			next := 0
			for _, r := range got {
				if r[0] != next || r[1] <= r[0] {
					t.Fatalf("procs=%d n=%d: ranges %v do not tile [0, n) in order", procs, n, got)
				}
				next = r[1]
			}
			if next != n || len(got) > procs {
				t.Fatalf("procs=%d n=%d: ranges %v", procs, n, got)
			}
		}
	}
}

func TestRangesReraisesPanic(t *testing.T) {
	defer func() {
		var pe *PanicError
		if err, _ := recover().(error); !errors.As(err, &pe) || pe.Value != "kaboom" {
			t.Fatalf("recovered %v, want the range's *PanicError", err)
		}
	}()
	Ranges(10, func(lo, hi int) int { panic("kaboom") })
}

// TestForEachPool is the table-driven worker-pool contract test: it
// covers completion, ordered results, error propagation, panic recovery
// and cancellation at several worker counts, including the sequential
// path (workers = 1) that backs Options.Workers = 1.
func TestForEachPool(t *testing.T) {
	sentinel := errors.New("boom")
	cases := []struct {
		name    string
		n       int
		fn      func(i int) (int, error)
		wantErr error // nil, sentinel, or a *PanicError (matched via errors.As)
	}{
		{
			name: "all items run",
			n:    100,
			fn:   func(i int) (int, error) { return i * i, nil },
		},
		{
			name: "zero items",
			n:    0,
			fn:   func(i int) (int, error) { t.Error("fn called for n=0"); return 0, nil },
		},
		{
			name: "single item",
			n:    1,
			fn:   func(i int) (int, error) { return 42, nil },
		},
		{
			name:    "error propagates",
			n:       50,
			fn:      func(i int) (int, error) { return 0, fmt.Errorf("item %d: %w", i, sentinel) },
			wantErr: sentinel,
		},
		{
			name: "lowest-index error wins",
			n:    50,
			fn: func(i int) (int, error) {
				if i%2 == 1 {
					return 0, fmt.Errorf("item %d: %w", i, sentinel)
				}
				return i, nil
			},
			wantErr: sentinel,
		},
		{
			name:    "panic recovered",
			n:       20,
			fn:      func(i int) (int, error) { panic("kaboom") },
			wantErr: &PanicError{},
		},
	}

	for _, workers := range []int{1, 2, 4, 16} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got, err := Map(workers, tc.n, tc.fn)
				switch tc.wantErr.(type) {
				case nil:
					if err != nil {
						t.Fatalf("unexpected error: %v", err)
					}
					for i := range got {
						w, _ := tc.fn(i)
						if got[i] != w {
							t.Fatalf("result[%d] = %d, want %d (must be index order, not completion order)", i, got[i], w)
						}
					}
				case *PanicError:
					var pe *PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("want PanicError, got %v", err)
					}
					if pe.Value != "kaboom" {
						t.Fatalf("panic value = %v", pe.Value)
					}
					if len(pe.Stack) == 0 {
						t.Fatal("panic stack missing")
					}
				default:
					if !errors.Is(err, sentinel) {
						t.Fatalf("want sentinel error, got %v", err)
					}
				}
			})
		}
	}
}

// TestForEachDeterministicError pins the reported error to the failing
// item with the lowest index among those that ran, not to whichever
// worker failed first on the clock. Items 2+ fail only after items 0 and
// 1 have started, so item 1's error must win every time.
func TestForEachDeterministicError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var earlyStarted sync.WaitGroup
		earlyStarted.Add(2)
		err := ForEach(8, 16, func(i int) error {
			if i < 2 {
				earlyStarted.Done()
				time.Sleep(time.Millisecond)
				if i == 1 {
					return errors.New("early 1")
				}
				return nil
			}
			// Later failures race with the early ones on wall-clock but
			// must never win the report.
			earlyStarted.Wait()
			return fmt.Errorf("late %d", i)
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != "early 1" {
			t.Fatalf("trial %d: error = %q, want the lowest evaluated index (early 1)", trial, got)
		}
	}
}

// TestForEachCancellation checks that after the first failure the pool
// stops dispatching new items instead of draining the whole range.
func TestForEachCancellation(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	err := ForEach(2, n, func(i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("stop")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if s := started.Load(); s >= n/2 {
		t.Fatalf("started %d of %d items after early failure; cancellation not effective", s, n)
	}
}

// TestForEachConcurrencyBound verifies the pool never runs more than the
// requested number of items at once.
func TestForEachConcurrencyBound(t *testing.T) {
	const workers, n = 3, 64
	var cur, peak atomic.Int64
	err := ForEach(workers, n, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestSequencerOrdersChunks(t *testing.T) {
	var buf bytes.Buffer
	s := NewSequencer(&buf)
	// Deliver chunks in a scrambled order; output must be 0..4.
	for _, i := range []int{3, 1, 4, 0, 2} {
		s.Put(i, []byte(fmt.Sprintf("chunk%d\n", i)))
	}
	want := "chunk0\nchunk1\nchunk2\nchunk3\nchunk4\n"
	if buf.String() != want {
		t.Fatalf("sequencer output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestSequencerConcurrentPuts(t *testing.T) {
	var buf bytes.Buffer
	s := NewSequencer(&buf)
	const n = 200
	if err := ForEach(8, n, func(i int) error {
		s.Put(i, []byte(fmt.Sprintf("%04d\n", i)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "%04d\n", i)
	}
	if buf.String() != want.String() {
		t.Fatal("concurrent sequencer output not in index order")
	}
}
