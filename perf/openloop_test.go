package main

import (
	"math/rand"
	"testing"
	"time"
)

// The open loop charges a stall to the requests queued behind it: their
// latency runs from when they were due, and the schedule itself does not
// slow down because the sender was busy.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const rate, stallAt = 200.0, 20
	dur, stall := 600*time.Millisecond, 200*time.Millisecond

	sends := 0
	free, _ := runOpenLoop(dur, rate, rand.New(rand.NewSource(5)), func() { sends++ })
	sends = 0
	lat, late := runOpenLoop(dur, rate, rand.New(rand.NewSource(5)), func() {
		if sends++; sends == stallAt {
			time.Sleep(stall)
		}
	})

	if len(lat) != len(free) || len(late) != len(lat) {
		t.Fatalf("stalled run sent %d requests (%d lateness samples), the same schedule without a stall %d", len(lat), len(late), len(free))
	}
	if lat[stallAt-1] < ms(stall) {
		t.Errorf("the stalled request took %.1f ms, want >= %v", lat[stallAt-1], stall)
	}
	// About rate*stall = 40 requests fell due during the stall; each left
	// late and is charged the wait, though its own send was instant.
	waited := 0
	for i := stallAt; i < len(lat); i++ {
		if late[i] > 20 && lat[i] >= late[i] {
			waited++
		}
	}
	if waited < 20 {
		t.Errorf("only %d requests were charged queueing behind the 200 ms stall, want >= 20", waited)
	}
	if late[stallAt] < 100 {
		t.Errorf("the request right behind the stall left %.1f ms late, want >= 100", late[stallAt])
	}
	for i, l := range free {
		if l > 50 {
			t.Errorf("request %d of the stall-free run took %.1f ms from due time", i, l)
		}
	}
}
