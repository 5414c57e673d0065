package main

import (
	"math/rand"
	"time"
)

// runOpenLoop calls send at the instants of a Poisson process of the
// given rate (per second) for dur, from one sender: independent users do
// not wait for each other's replies. When a send is still in flight at
// the next due instant, that request leaves late — and its latency still
// counts from when it was due, so the wait a stall imposes on the
// requests queued behind it is charged to them. It returns, per request
// and in milliseconds, the latency from due time and how late the
// request left.
func runOpenLoop(dur time.Duration, rate float64, rng *rand.Rand, send func()) (lat, late []float64) {
	if rate <= 0 {
		return nil, nil
	}
	begin := time.Now()
	due := begin
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(begin) > dur {
			return lat, late
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, ms(time.Since(due)))
		send()
		lat = append(lat, ms(time.Since(due)))
	}
}
