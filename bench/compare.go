package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// exactCounts are the per-layer counts that must repeat exactly for a fixed
// seed: two result files measured with the same seeds may not differ on them.
var exactCounts = map[string]bool{
	"vp.packs": true, "vp.packs_solved_frac": true, "vp.steps_pruned": true,
	"presolve.rows_kept_frac": true, "lp.iterations": true, "lp.refactorizations": true,
	"lp.warm_start_frac": true, "milp.nodes": true,
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// series collects, per workload and metric, the values of every run in a
// result file (a file written with -repeats N holds N runs per workload).
func series(rf *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Workloads {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median — the quantity the bounds are compared with. It needs four
// values; fewer give 0 (no evidence of spread).
func spread(vals []float64) float64 {
	if len(vals) < 4 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	// Exclusive quartiles, as Python's statistics.quantiles(n=4) computes.
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := quantile(s, 0.5)
	if med == 0 { //vmalloc:nondet-ok exact zero is the one median a share cannot be taken of
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// compareFiles prints one row per (metric, workload) and fails on any
// regression: B's median worse than A's by more than the metric's bound.
// Where either side's own spread exceeds the bound the row is unresolved,
// not unchanged.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	sa, sb := series(a), series(b)
	sameSeeds := a.Seed == b.Seed && a.Repeats == b.Repeats
	defs := append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...)
	regressed, unresolved := 0, 0
	fmt.Printf("%-16s %-28s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, w := range order {
		for _, d := range defs {
			va, vb := sa[w][d.Name], sb[w][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 { //vmalloc:nondet-ok a layer the workload bypasses is filled with the constant 0
				continue
			}
			worse := 0.0
			if ma != 0 { //vmalloc:nondet-ok exact zero is the one base a share cannot be taken of
				worse = (mb - ma) / math.Abs(ma)
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case exactCounts[d.Name] && sameSeeds && ma != mb: //vmalloc:nondet-ok these are integer counts and must repeat exactly
				verdict = "regressed (count must repeat exactly)"
				regressed++
			case d.Bound <= 0:
				verdict = "-" // per-layer metrics carry no bound
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f)", spread(va), spread(vb))
				unresolved++
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-16s %-28s %14.6g %14.6g %+8.1f%% %8.3g  %s\n", w, d.Name, ma, mb, 100*worse, d.Bound, verdict)
		}
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return errors.New("regression beyond the bounds of BENCHMARK.json")
	}
	return nil
}
