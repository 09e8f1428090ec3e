package vmalloc

import (
	"math"
	"testing"

	"vmalloc/internal/core"
)

// Cross-algorithm integration tests at the public API level: every solved
// result must be a valid placement whose reported yield is feasible and
// bounded by the LP relaxation optimum; the meta algorithms must respect
// their documented dominance relations.

func integrationScenarios() []Scenario {
	var out []Scenario
	for _, cov := range []float64{0, 0.6} {
		for _, slack := range []float64{0.4, 0.7} {
			for seed := int64(1); seed <= 2; seed++ {
				out = append(out, Scenario{
					Hosts: 6, Services: 18, COV: cov, Slack: slack, Seed: seed,
				})
			}
		}
	}
	return out
}

func TestIntegrationAllAlgorithmsRespectBoundAndValidity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	algos := []string{AlgoRRND, AlgoRRNZ, AlgoMetaGreedy, AlgoMetaVP, AlgoMetaHVP, AlgoMetaHVPLight}
	for _, scn := range integrationScenarios() {
		p := Generate(scn)
		ub, err := RelaxedUpperBound(p)
		if err != nil {
			t.Fatalf("%s: %v", scn, err)
		}
		for _, algo := range algos {
			res, err := Solve(algo, p, &Options{Seed: 7})
			if err != nil {
				t.Fatalf("%s/%s: %v", scn, algo, err)
			}
			if !res.Solved {
				continue
			}
			if err := res.Placement.Validate(p); err != nil {
				t.Fatalf("%s/%s: invalid placement: %v", scn, algo, err)
			}
			if !FeasibleAtYield(p, res.Placement, res.MinYield-1e-6) {
				t.Fatalf("%s/%s: reported yield %v infeasible", scn, algo, res.MinYield)
			}
			if ub >= 0 && res.MinYield > ub+1e-4 {
				t.Fatalf("%s/%s: yield %v exceeds relaxation bound %v", scn, algo, res.MinYield, ub)
			}
			// Per-service yields must be consistent with the minimum.
			for j, y := range res.Yields {
				if y < res.MinYield-1e-9 {
					t.Fatalf("%s/%s: service %d yield %v below minimum %v", scn, algo, j, y, res.MinYield)
				}
			}
			// Materialized allocations must respect all capacities.
			al, err := core.Materialize(p, res)
			if err != nil {
				t.Fatalf("%s/%s: %v", scn, algo, err)
			}
			if err := al.Check(p, 1e-6); err != nil {
				t.Fatalf("%s/%s: %v", scn, algo, err)
			}
		}
	}
}

func TestIntegrationMetaDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, scn := range integrationScenarios() {
		p := Generate(scn)
		greedy, _ := Solve(AlgoMetaGreedy, p, nil)
		hvpRes, _ := Solve(AlgoMetaHVP, p, nil)
		// METAHVP succeeds whenever METAGREEDY does: the HVP set includes
		// first-fit-style packers at yield 0, which succeed whenever any
		// requirement-feasible placement is reachable greedily.
		if greedy.Solved && !hvpRes.Solved {
			t.Fatalf("%s: greedy solved but METAHVP failed", scn)
		}
	}
}

func TestIntegrationExactDominatesHeuristicsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := Generate(Scenario{Hosts: 3, Services: 6, COV: 0.5, Slack: 0.6, Seed: seed})
		exact, err := Solve(AlgoExact, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := Solve(AlgoMetaHVP, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if heur.Solved && !exact.Solved {
			t.Fatalf("seed %d: heuristic solved but exact infeasible", seed)
		}
		if heur.Solved && exact.Solved && heur.MinYield > exact.MinYield+1e-4 {
			t.Fatalf("seed %d: heuristic %v beats exact %v", seed, heur.MinYield, exact.MinYield)
		}
	}
}

func TestIntegrationHomogeneousVPMatchesHVPAtZeroCOV(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// On perfectly homogeneous platforms bin sorting is a no-op, so METAVP
	// and METAHVP should achieve (nearly) identical yields — the paper's
	// Figure 2 observation at COV 0.
	for seed := int64(1); seed <= 4; seed++ {
		p := Generate(Scenario{Hosts: 6, Services: 24, COV: 0, Slack: 0.5, Seed: seed})
		a, _ := Solve(AlgoMetaVP, p, nil)
		b, _ := Solve(AlgoMetaHVP, p, nil)
		if a.Solved != b.Solved {
			t.Fatalf("seed %d: solved mismatch", seed)
		}
		if a.Solved && math.Abs(a.MinYield-b.MinYield) > 0.02 {
			t.Fatalf("seed %d: homogeneous yields diverge: %v vs %v", seed, a.MinYield, b.MinYield)
		}
	}
}
