package milp

import (
	"errors"
	"math"
	"sync"

	"vmalloc/internal/lp"
)

// claimState says whether a node's relaxation is still free to solve.
type claimState uint8

const (
	unclaimed claimState = iota
	claimed              // a goroutine is solving it (or the search took it)
	solved               // rel and err hold its answer
)

// speculator solves a tree's open nodes ahead of the search. Every child the
// search pushes is also offered on a LIFO stack; one helper goroutine, and
// the search itself whenever it would otherwise wait for the helper, claim
// offered nodes newest first and solve each on their own relaxations,
// leaving the answer in the node. The search still pops, prunes and
// branches alone, and takes each popped node's answer from wherever it was
// solved, so speculation moves no count and no bit of the Solution. A node
// solved ahead and then pruned at its pop is wasted work.
type speculator struct {
	mu sync.Mutex
	// wake is signalled on an offer and on stop (for the helper) and when
	// the helper solves a node or panics (for the search): each of the two
	// goroutines waits only on something the other does.
	wake    sync.Cond
	offered []*node
	// best is the incumbent objective, -Inf before one: a node whose bound
	// cannot beat it is pruned at its pop, so it is not worth claiming.
	best     float64
	done     bool // stop was called
	failed   bool // the helper panicked with panicVal
	panicVal any
	exited   sync.WaitGroup
	rs       relaxations // the helper's
}

// specPool recycles speculators, with the helper's relaxations and the
// offer stack, across trees.
var specPool = sync.Pool{New: func() any {
	sp := new(speculator)
	sp.wake.L = &sp.mu
	return sp
}}

// errHelperPanicked ends the search when the node it waits for was claimed
// by a helper that panicked; stop then re-raises the helper's panic.
var errHelperPanicked = errors.New("milp: speculative helper panicked")

// helperSolve is how the helper solves a node; tests wrap it.
var helperSolve = (*relaxations).solve

// startSpeculator starts a helper goroutine for the tree over base.
func startSpeculator(base *lp.Problem) *speculator {
	sp := specPool.Get().(*speculator)
	sp.best, sp.done = math.Inf(-1), false
	sp.rs.reset(base)
	sp.exited.Add(1)
	go sp.run()
	return sp
}

// run is the helper: it solves claimed nodes until stop. A panic is kept
// for stop to re-raise.
func (sp *speculator) run() {
	defer sp.exited.Done()
	defer func() {
		if r := recover(); r != nil {
			sp.mu.Lock()
			sp.failed, sp.panicVal = true, r
			sp.mu.Unlock()
			sp.wake.Signal()
		}
	}()
	sp.mu.Lock()
	for !sp.done {
		nd := sp.claimLocked()
		if nd == nil {
			sp.wake.Wait()
			continue
		}
		sp.mu.Unlock()
		rel, err := helperSolve(&sp.rs, nd)
		sp.mu.Lock()
		nd.rel, nd.err, nd.claim = rel, err, solved
		sp.wake.Signal()
	}
	sp.mu.Unlock()
}

// offer makes newly pushed children claimable.
func (sp *speculator) offer(kids []*node) {
	sp.mu.Lock()
	sp.offered = append(sp.offered, kids...)
	sp.mu.Unlock()
	sp.wake.Signal()
}

// raise records a new incumbent objective; a nil speculator ignores it.
func (sp *speculator) raise(best float64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.best = best
	sp.mu.Unlock()
}

// claimLocked pops offered nodes newest first until one is unclaimed and
// can beat the incumbent, claims it and returns it; nil when none is left.
func (sp *speculator) claimLocked() *node {
	for n := len(sp.offered) - 1; n >= 0; n-- {
		nd := sp.offered[n]
		sp.offered[n] = nil
		sp.offered = sp.offered[:n]
		if nd.claim == unclaimed && nd.bound > sp.best+1e-12 {
			nd.claim = claimed
			return nd
		}
	}
	return nil
}

// answer returns the relaxation of nd, the node the search just popped:
// solved on rs if no goroutine has claimed it (always, for a nil
// speculator), else the helper's answer, waited for while solving other
// offered nodes on rs.
func (sp *speculator) answer(nd *node, rs *relaxations) (*lp.Solution, error) {
	if sp == nil {
		return rs.solve(nd)
	}
	sp.mu.Lock()
	for {
		switch {
		case nd.claim == unclaimed:
			nd.claim = claimed
			sp.mu.Unlock()
			return rs.solve(nd)
		case nd.claim == solved:
			sp.mu.Unlock()
			rel, err := nd.rel, nd.err
			nd.rel, nd.err = nil, nil
			return rel, err
		case sp.failed:
			sp.mu.Unlock()
			return nil, errHelperPanicked
		}
		if other := sp.claimLocked(); other != nil {
			sp.mu.Unlock()
			rel, err := rs.solve(other)
			sp.mu.Lock()
			other.rel, other.err, other.claim = rel, err, solved
			continue
		}
		sp.wake.Wait()
	}
}

// stop makes the helper exit, waits for it, and re-raises its panic, if it
// had one, in the caller's goroutine; a speculator whose helper returned is
// pooled again.
func (sp *speculator) stop() {
	sp.mu.Lock()
	sp.done = true
	sp.mu.Unlock()
	sp.wake.Signal()
	sp.exited.Wait()
	if sp.failed {
		panic(sp.panicVal)
	}
	clear(sp.offered)
	sp.offered = sp.offered[:0]
	sp.rs.reset(nil)
	specPool.Put(sp)
}
