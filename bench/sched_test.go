package main

import (
	"sync"
	"testing"
	"time"
)

// A server slower than the arrival rate must not slow the arrivals down: the
// dispatcher keeps to the schedule and the wait shows up in the latency
// measured from the due time.
func TestOpenLoopChargesQueueingToTheServer(t *testing.T) {
	const n, every, service = 40, time.Millisecond, 5 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	var mu sync.Mutex
	latency := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	st := runOpenLoop(start, due, 1, time.Second, func(_, i int, at time.Time) {
		time.Sleep(service)
		mu.Lock()
		latency[i] = time.Since(at)
		mu.Unlock()
	})
	if st.Dropped != 0 || len(st.LateMs) != n {
		t.Fatalf("dropped %d, lateness samples %d", st.Dropped, len(st.LateMs))
	}
	// The last arrival waited behind n-1 services of 5 ms minus its own
	// 39 ms head start: at least 150 ms. A generator that waited for each
	// reply before sending the next would report 5 ms for every request.
	if latency[n-1] < 150*time.Millisecond {
		t.Errorf("last request's latency %v does not include its queueing", latency[n-1])
	}
	for i, ms := range st.LateMs {
		if ms < 0 || ms > 50 {
			t.Errorf("arrival %d released %.2f ms late although no worker blocks the dispatcher", i, ms)
		}
	}
}

func TestOpenLoopCountsDrops(t *testing.T) {
	due := make([]time.Duration, 20)
	var mu sync.Mutex
	ran := 0
	st := runOpenLoop(time.Now(), due, 1, 30*time.Millisecond, func(_, _ int, _ time.Time) {
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		ran++
		mu.Unlock()
	})
	if st.Dropped == 0 || ran+st.Dropped != len(due) {
		t.Errorf("ran %d, dropped %d of %d", ran, st.Dropped, len(due))
	}
}
