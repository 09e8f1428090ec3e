package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoopStats is what the generator reports about itself, so that a stalled
// generator cannot pass for a fast server.
type openLoopStats struct {
	// LateMs is, per arrival, how long after its due time the dispatcher
	// released it.
	LateMs []float64
	// Dropped counts arrivals still queued when the drain deadline passed.
	// They were never sent and count as missing every latency limit.
	Dropped int
}

// runOpenLoop releases arrival i at start+due[i] (due ascending) regardless
// of how the earlier ones fared, and has `workers` goroutines execute them by
// calling do(worker, i, dueTime). The queue holds every arrival, so a slow
// server never blocks the dispatcher: requests wait in the queue and their
// latency, measured by do from dueTime, includes that wait (no coordinated
// omission). Arrivals not started within drain of the last due time are
// dropped.
func runOpenLoop(start time.Time, due []time.Duration, workers int, drain time.Duration, do func(worker, i int, due time.Time)) openLoopStats {
	if len(due) == 0 {
		return openLoopStats{}
	}
	queue := make(chan int, len(due)) // sized to the number of sends
	deadline := start.Add(due[len(due)-1] + drain)
	var dropped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if time.Now().After(deadline) {
					dropped.Add(1)
					continue
				}
				do(w, i, start.Add(due[i]))
			}
		}(w)
	}
	late := make([]float64, len(due))
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		late[i] = float64(time.Since(at)) / float64(time.Millisecond)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return openLoopStats{LateMs: late, Dropped: int(dropped.Load())}
}
