// Package exp is the experiment harness: it runs the paper's algorithm
// roster over generated instance sweeps in parallel, computes the pairwise
// comparison metrics of §5, and renders the tables and figure series of
// §5–§6. A sweep's outcomes do not depend on its worker count: the LP
// entries of one instance share its relaxation through relax's table of
// recent answers, and a hit there returns a cold solve's bits.
package exp

import (
	"vmalloc/internal/core"
	"vmalloc/internal/greedy"
	"vmalloc/internal/hvp"
	"vmalloc/internal/relax"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// Algo is a named allocation algorithm.
type Algo struct {
	Name string
	Run  func(p *core.Problem) *core.Result
}

// Canonical algorithm names used across tables.
const (
	NameRRND         = "RRND"
	NameRRNZ         = "RRNZ"
	NameMetaGreedy   = "METAGREEDY"
	NameMetaVP       = "METAVP"
	NameMetaHVP      = "METAHVP"
	NameMetaHVPLight = "METAHVPLIGHT"
)

// RoundingAttempts is how many rounding trials RRND/RRNZ get per instance.
const RoundingAttempts = 20

// MetaGreedyAlgo returns the METAGREEDY roster entry.
func MetaGreedyAlgo() Algo {
	return Algo{Name: NameMetaGreedy, Run: func(p *core.Problem) *core.Result {
		return greedy.MetaGreedy(p, false)
	}}
}

// MetaVPAlgo returns the METAVP roster entry with the given binary-search
// tolerance (<= 0 for the paper default).
func MetaVPAlgo(tol float64) Algo {
	return Algo{Name: NameMetaVP, Run: func(p *core.Problem) *core.Result {
		return vp.MetaVP(p, tol)
	}}
}

// MetaHVPAlgo returns the METAHVP roster entry.
func MetaHVPAlgo(tol float64) Algo {
	return Algo{Name: NameMetaHVP, Run: func(p *core.Problem) *core.Result {
		return hvp.MetaHVP(p, tol)
	}}
}

// MetaHVPLightAlgo returns the METAHVPLIGHT roster entry.
func MetaHVPLightAlgo(tol float64) Algo {
	return Algo{Name: NameMetaHVPLight, Run: func(p *core.Problem) *core.Result {
		return hvp.MetaHVPLight(p, tol)
	}}
}

// RRNDAlgo returns the RRND roster entry. Each run solves the rational
// relaxation with the internal simplex and rounds seed-deterministically.
func RRNDAlgo(seed int64) Algo {
	return Algo{Name: NameRRND, Run: func(p *core.Problem) *core.Result {
		rel, err := relax.SolveRelaxed(p)
		if err != nil {
			return &core.Result{}
		}
		return relax.RRND(p, rel, RoundingAttempts, workload.NewRand(seed))
	}}
}

// RRNZAlgo returns the RRNZ roster entry.
func RRNZAlgo(seed int64) Algo {
	return Algo{Name: NameRRNZ, Run: func(p *core.Problem) *core.Result {
		rel, err := relax.SolveRelaxed(p)
		if err != nil {
			return &core.Result{}
		}
		return relax.RRNZ(p, rel, RoundingAttempts, workload.NewRand(seed))
	}}
}

// LPRoster returns the RRND and RRNZ roster entries, the roster the
// paper-scale LP tier runs. Both round the same rational relaxation, and
// relax remembers the answers of the last few problems it solved, so the
// second entry's solve of an instance is answered from memory — no encode,
// presolve or simplex pivot — and rounds exactly the bits a cold solve
// gives. An instance evicted in between is solved again, cold.
func LPRoster(seed int64) []Algo {
	return []Algo{RRNDAlgo(seed), RRNZAlgo(seed)}
}

// HeuristicRoster returns the non-LP algorithms of Table 1 (METAGREEDY,
// METAVP, METAHVP) plus METAHVPLIGHT.
func HeuristicRoster(tol float64) []Algo {
	return []Algo{MetaGreedyAlgo(), MetaVPAlgo(tol), MetaHVPAlgo(tol), MetaHVPLightAlgo(tol)}
}

// FullRoster additionally includes the LP-based RRND and RRNZ of LPRoster;
// with the sparse simplex this runs at the paper-scale LP tier, not just
// reduced sizes.
func FullRoster(tol float64, seed int64) []Algo {
	return append(LPRoster(seed), HeuristicRoster(tol)...)
}
