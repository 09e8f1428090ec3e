package relax

import (
	"math"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/workload"
)

// bruteForce scores every placement of p with core.EvaluatePlacement and
// returns the best minimum yield, or -1 when no placement fits.
func bruteForce(p *core.Problem) float64 {
	pl := make(core.Placement, p.NumServices())
	best := -1.0
	for {
		if r := core.EvaluatePlacement(p, pl); r.Solved {
			best = max(best, r.MinYield)
		}
		j := 0
		for ; j < len(pl); j++ {
			if pl[j]++; pl[j] < p.NumNodes() {
				break
			}
			pl[j] = 0
		}
		if j == len(pl) {
			return best
		}
	}
}

// SolveExact must find the best of every placement: on up to 3 nodes and 7
// services, homogeneous (COV 0) and heterogeneous platforms, loose and tight
// memory, its minimum yield must equal brute force's to 1e-12, it must
// report no placement exactly when none fits, and its result must be
// core.EvaluatePlacement of its own placement.
func TestExactMatchesBruteForce(t *testing.T) {
	solved, infeasible, tight := 0, 0, 0
	for hosts := 1; hosts <= 3; hosts++ {
		for services := 1; services <= 7; services++ {
			for _, cov := range []float64{0, 0.5, 1} {
				for _, slack := range []float64{0.2, 0.5} {
					for seed := int64(1); seed <= 3; seed++ {
						scn := workload.Scenario{Hosts: hosts, Services: services, COV: cov, Slack: slack, Seed: seed}
						p := workload.Generate(scn)
						want := bruteForce(p)
						res, err := SolveExact(p, nil)
						if err != nil {
							t.Fatalf("%s: %v", scn, err)
						}
						if res.Solved != (want >= 0) {
							t.Fatalf("%s: solved=%v, brute force's best %v", scn, res.Solved, want)
						}
						if !res.Solved {
							infeasible++
							continue
						}
						solved++
						if want < 1 {
							tight++
						}
						if math.Abs(res.MinYield-want) > 1e-12 {
							t.Errorf("%s: yield %.17g, brute force %.17g", scn, res.MinYield, want)
						}
						if ev := core.EvaluatePlacement(p, res.Placement); ev.MinYield != res.MinYield {
							t.Errorf("%s: reported yield %v, its placement evaluates to %v", scn, res.MinYield, ev.MinYield)
						}
					}
				}
			}
		}
	}
	t.Logf("%d solved (%d below yield 1), %d infeasible", solved, tight, infeasible)
	if infeasible == 0 || tight == 0 {
		t.Error("the corpus lacks an infeasible or a yield-limited instance")
	}
}

// Backtracking restores each node's sums and elementary cap from saved
// copies, so a finished search leaves every node as it found it, empty, to
// the bit; undoing an addition by subtraction would leave rounding residue
// in the sums that later yields would read.
func TestExactSearchRestoresNodes(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		scn := workload.Scenario{Hosts: 3, Services: 8, COV: []float64{0, 0.5, 1}[seed%3], Slack: 0.5, Seed: seed}
		s, bound := newExactSearch(workload.Generate(scn), maxSearchNodes)
		if bound < 0 {
			continue
		}
		if !s.place(0, bound) {
			t.Fatalf("%s: capped", scn)
		}
		for h := 0; h < s.H; h++ {
			if s.count[h] != 0 || s.elem[h] != 1 {
				t.Fatalf("%s: node %d left with %d services, elementary cap %v", scn, h, s.count[h], s.elem[h])
			}
		}
		for i := range s.req {
			if math.Float64bits(s.req[i]) != 0 || math.Float64bits(s.need[i]) != 0 {
				t.Fatalf("%s: node %d dimension %d left with sums %g, %g", scn, i/s.D, i%s.D, s.req[i], s.need[i])
			}
		}
	}
}
