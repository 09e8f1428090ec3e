package relax

import (
	"math"
	"slices"
	"sync"

	"vmalloc/internal/core"
)

// warmTableSize is how many problems' answers the relaxation solves
// remember: at least four times the experiment roster's worker count on a
// two-core machine, so an instance's bound, RRND and RRNZ solves find one
// another's answer even with every worker mid-instance. Each entry holds a
// Clone of its problem (13 KB allocated at 8x64) and the answer, and keeps
// its problem reachable until evicted.
const warmTableSize = 8

// warmEntry is one remembered problem: a snapshot (a Clone) of it as it
// was when last solved, and that solve's answer.
type warmEntry struct {
	p, snap *core.Problem
	rel     *Relaxed // never handed out: callers get copies
}

// warmTable remembers the answers of the most recently solved problems,
// keyed by problem pointer, so a repeat solve of the same *core.Problem —
// the bound, then RRND, then RRNZ — is answered from memory: no Encode, no
// presolve, no simplex. A hit needs the problem's data to be bit-equal to
// the entry's snapshot, so an in-place edit misses and re-solves cold. An
// equal problem held in a different object misses by design.
var warmTable struct {
	mu      sync.Mutex
	next    int // the slot a new problem takes: the oldest one's
	entries [warmTableSize]warmEntry
}

// recall returns p's entry, zero when p has none.
func recall(p *core.Problem) warmEntry {
	warmTable.mu.Lock()
	defer warmTable.mu.Unlock()
	for _, e := range &warmTable.entries {
		if e.p == p {
			return e
		}
	}
	return warmEntry{}
}

// remember records e as its problem's entry: in place when the problem has
// one, else over the oldest entry. An entry with no answer — a solve that
// failed — forgets the problem instead.
func remember(e warmEntry) {
	warmTable.mu.Lock()
	defer warmTable.mu.Unlock()
	entries := &warmTable.entries
	for i := range entries {
		if entries[i].p == e.p {
			if e.rel == nil {
				e = warmEntry{}
			}
			entries[i] = e
			return
		}
	}
	if e.rel != nil {
		entries[warmTable.next] = e
		warmTable.next = (warmTable.next + 1) % warmTableSize
	}
}

// sameData reports whether p holds, bit for bit, the data of snapshot q.
func sameData(p, q *core.Problem) bool {
	if len(p.Services) != len(q.Services) || len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Services {
		s, t := &p.Services[i], &q.Services[i]
		if !sameVec(s.ReqElem, t.ReqElem) || !sameVec(s.ReqAgg, t.ReqAgg) ||
			!sameVec(s.NeedElem, t.NeedElem) || !sameVec(s.NeedAgg, t.NeedAgg) {
			return false
		}
	}
	for i := range p.Nodes {
		if !sameVec(p.Nodes[i].Elementary, q.Nodes[i].Elementary) || !sameVec(p.Nodes[i].Aggregate, q.Nodes[i].Aggregate) {
			return false
		}
	}
	return true
}

// sameVec reports element-for-element bit equality.
func sameVec(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
