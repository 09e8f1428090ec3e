package exp

import (
	"runtime"
	"sync"
	"time"

	"vmalloc/internal/workload"
)

// Outcome is one algorithm's result on one instance.
type Outcome struct {
	Solved   bool
	MinYield float64
	Elapsed  time.Duration
	// Allocs and AllocBytes are the heap allocation deltas (object count and
	// bytes) observed across the algorithm's run via runtime.MemStats, so
	// allocation regressions in the hot paths show up in sweeps alongside
	// wall-clock. The counters are process-global: under a parallel sweep,
	// sibling workers' allocations bleed into each other's deltas, so treat
	// the numbers as indicative per-run magnitudes, not exact counts (run
	// with Workers: 1 for exact ones).
	Allocs     uint64
	AllocBytes uint64
}

// ResultSet holds a full sweep: one Outcome per (algorithm, scenario).
type ResultSet struct {
	Scenarios []workload.Scenario
	Algos     []string
	// ByAlgo[name][i] is the outcome of algorithm name on Scenarios[i].
	ByAlgo map[string][]Outcome
}

// Runner executes sweeps with a bounded worker pool.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
}

// forEachIndex calls f(i) for every i in [0, n) on a pool of workers
// goroutines (<= 0 selects GOMAXPROCS) and returns once every call has
// returned. Each index goes to exactly one call, so f may write slot i of
// a caller-owned slice without locking.
func forEachIndex(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// Run generates each scenario's instance and runs every algorithm on it.
// Scenarios are processed in parallel; all algorithms for one scenario run
// on the same worker so per-algorithm timing is not perturbed by sibling
// goroutines of the same instance.
func (r *Runner) Run(scns []workload.Scenario, algos []Algo) *ResultSet {
	rs := &ResultSet{Scenarios: scns, ByAlgo: map[string][]Outcome{}}
	for _, a := range algos {
		rs.Algos = append(rs.Algos, a.Name)
		rs.ByAlgo[a.Name] = make([]Outcome, len(scns))
	}
	forEachIndex(len(scns), r.Workers, func(i int) {
		var before, after runtime.MemStats
		p := workload.Generate(scns[i])
		for _, a := range algos {
			runtime.ReadMemStats(&before)
			start := time.Now()
			res := a.Run(p)
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			rs.ByAlgo[a.Name][i] = Outcome{
				Solved:     res.Solved,
				MinYield:   res.MinYield,
				Elapsed:    el,
				Allocs:     after.Mallocs - before.Mallocs,
				AllocBytes: after.TotalAlloc - before.TotalAlloc,
			}
		}
	})
	return rs
}

// GridSpec describes a scenario sweep in the style of §4: a cross product of
// service counts, COV values, slack values and seeds at a fixed host count.
type GridSpec struct {
	Hosts    int
	Services []int
	COVs     []float64
	Slacks   []float64
	Seeds    []int64
	Mode     workload.HeterogeneityMode
}

// Scenarios expands the grid into scenario values.
func (g GridSpec) Scenarios() []workload.Scenario {
	var out []workload.Scenario
	for _, j := range g.Services {
		for _, cov := range g.COVs {
			for _, slack := range g.Slacks {
				for _, seed := range g.Seeds {
					out = append(out, workload.Scenario{
						Hosts: g.Hosts, Services: j, COV: cov, Slack: slack,
						Mode: g.Mode, Seed: seed,
					})
				}
			}
		}
	}
	return out
}

// Filter returns the subset of a result set whose scenario satisfies keep,
// preserving algorithm order.
func (rs *ResultSet) Filter(keep func(workload.Scenario) bool) *ResultSet {
	out := &ResultSet{Algos: rs.Algos, ByAlgo: map[string][]Outcome{}}
	var idx []int
	for i, s := range rs.Scenarios {
		if keep(s) {
			idx = append(idx, i)
			out.Scenarios = append(out.Scenarios, s)
		}
	}
	for name, outs := range rs.ByAlgo {
		sel := make([]Outcome, len(idx))
		for k, i := range idx {
			sel[k] = outs[i]
		}
		out.ByAlgo[name] = sel
	}
	return out
}
