package relax

import (
	"sync"

	"vmalloc/internal/core"
	"vmalloc/internal/lp"
)

// warmTableSize is how many problems' warm tokens the relaxation solves
// remember: at least four times the experiment roster's worker count on a
// two-core machine, so an instance's bound, RRND and RRNZ solves find one
// another's token even with every worker mid-instance. Each entry holds one
// token (about 0.4 MB at 8x64: the reduced basis and the reduction it
// belongs to) and keeps its problem reachable until evicted.
const warmTableSize = 8

// warmEntry is one remembered problem and the token of its latest solve.
type warmEntry struct {
	p     *core.Problem
	basis *lp.Basis
}

// warmTable holds the warm tokens of the most recently solved problems,
// keyed by problem pointer, so a repeat solve of the same *core.Problem —
// the bound, then RRND, then RRNZ — re-solves warm from that problem's own
// optimal basis. The table never decides reuse: presolve.Backend
// compares the problem against its own copy of the one the token's
// reduction came from (an in-place edit reduces afresh), and a basis that
// does not fit costs a cold start. Since an optimal result is read off a
// fresh factorization of its final basis, a hit returns a cold solve's bits
// and a miss costs time, never bits. An equal problem held in a different
// object misses by design.
var warmTable struct {
	mu      sync.Mutex
	next    int // the slot a new problem takes: the oldest one's
	entries [warmTableSize]warmEntry
}

// rememberedBasis returns the token of p's latest solve, or nil.
func rememberedBasis(p *core.Problem) *lp.Basis {
	warmTable.mu.Lock()
	defer warmTable.mu.Unlock()
	for _, e := range &warmTable.entries {
		if e.p == p {
			return e.basis
		}
	}
	return nil
}

// rememberBasis records b as p's latest token: in place when p has an
// entry, else over the oldest entry. A nil b — a solve that ended without a
// basis — forgets p instead, so the next solve of p starts cold, as it would
// have without the table.
func rememberBasis(p *core.Problem, b *lp.Basis) {
	warmTable.mu.Lock()
	defer warmTable.mu.Unlock()
	entries := &warmTable.entries
	for i := range entries {
		if entries[i].p == p {
			if b == nil {
				entries[i] = warmEntry{}
			} else {
				entries[i].basis = b
			}
			return
		}
	}
	if b != nil {
		entries[warmTable.next] = warmEntry{p: p, basis: b}
		warmTable.next = (warmTable.next + 1) % warmTableSize
	}
}
