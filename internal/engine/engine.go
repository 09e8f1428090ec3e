// Package engine is the persistent online allocation engine behind the
// dynamic hosting platform of the paper's §8: one long-lived object owns the
// mutable cluster state — live services, per-node loads, the true and
// estimated problem views — together with the long-lived solver resources
// (arena-backed vp.Solvers) that the epoch hot path reuses across
// reallocations.
//
// The rebuild-per-epoch simulator this replaces recomputed everything from
// scratch at every event: per-node loads were re-summed over all live
// services on each arrival, departures scanned the arrival list linearly,
// and every reallocation rebuilt both problem views and a fresh solver
// arena. The engine instead maintains cluster state incrementally —
//
//   - live services sit in a slab with an id→slot map; departures unlink in
//     O(1) by swap-removing the live list,
//   - per-node requirement and need loads are updated on arrival/departure
//     and recomputed canonically (ascending service id) after each applied
//     reallocation, so admission is O(H·D) instead of O(J·H·D),
//   - the problem views recycle their backing arrays (services are listed in
//     ascending id order, which equals arrival order, so view-dependent
//     tie-breaking is identical to the arrival-ordered rebuild), and
//   - one arena vp.Solver per worker is Rebind-ed to the mutated view each
//     epoch, keeping bin-order caches and flat buffers warm.
//
// Reallocation through the engine is result-identical to the
// rebuild-per-epoch path: a Rebind-ed solver behaves exactly like a fresh
// one, and the workers race the strategy roster under a
// lowest-index-success reduction that provably returns the sequential
// result (see hvp.MetaDeterministicSolvers) — so for a given engine the
// trajectory is a function of its history alone, worker count
// notwithstanding. The count is not a user option: the engine's owners set
// it with DomainWorkers from the cores the process may use.
//
// One caveat separates the engine from the *historical* simulator it
// replaces: the incremental load updates of Remove are not
// floating-point-identical to re-summing loads from scratch on every
// arrival, so an admission whose best-fit scores tie within one ULP could
// in principle resolve differently than the old code. The golden-trajectory
// tests pin equality at the acceptance-scale seeds; cross-implementation
// identity beyond that is overwhelmingly likely but not proven.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"vmalloc/internal/core"
	"vmalloc/internal/hvp"
	"vmalloc/internal/obs"
	"vmalloc/internal/opt"
	"vmalloc/internal/sched"
	"vmalloc/internal/sliceutil"
	"vmalloc/internal/vec"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// Placer computes a placement from the (estimated, thresholded) problem
// view. The view is owned by the engine and valid only for the duration of
// the call.
type Placer func(p *core.Problem) *core.Result

// DomainWorkers is the worker count of each of domains placement domains
// that solve concurrently: max(1, GOMAXPROCS/domains). The cores are split
// across domains first, and only what is left over races a domain's
// strategy roster. The shard router calls it with its shard count, the
// platform driver with 1; the count never changes a result.
func DomainWorkers(domains int) int {
	return domainWorkers(runtime.GOMAXPROCS(0), domains)
}

func domainWorkers(procs, domains int) int {
	return max(1, procs/domains)
}

// Config parameterizes an Engine.
type Config struct {
	// Nodes is the fixed physical platform (required, never mutated).
	Nodes []core.Node
	// Placer overrides the built-in meta placer entirely (the engine's
	// persistent solvers are then unused).
	Placer Placer
	// Workers is the number of goroutines racing the strategy roster at each
	// binary-search step, under the deterministic lowest-index-success
	// reduction; <= 1 runs the sequential sweep. Results are bit-identical at
	// every count. Owners set it with DomainWorkers.
	Workers int
	// Now is the injected wall clock used solely to stamp
	// EpochReport.SolveNs; nil leaves SolveNs zero. The engine is
	// determinism-critical (its decisions are replayed from the WAL), so it
	// never reads the clock itself — time enters only through this seam,
	// wired to time.Now by the clock-owning callers (vmalloc.Cluster, the
	// platform driver, the shard router's own injected clock).
	Now func() time.Time
}

// slot is one slab entry.
type slot struct {
	id      int
	trueSvc core.Service
	estSvc  core.Service
	node    int
	livePos int // index into Engine.live while used
	used    bool
}

// EpochReport describes one Reallocate or Repair call.
type EpochReport struct {
	// Result is the solve outcome; its Placement is in IDs order. On
	// !Result.Solved the previous placement was kept.
	Result *core.Result
	// IDs lists the live service ids in view order (ascending id = arrival
	// order). The slice aliases an engine buffer valid until the next epoch.
	IDs []int
	// Services is len(IDs).
	Services int
	// Migrations counts already-placed services that changed node.
	Migrations int
	// SolveNs is the wall time of the placer (or repair) call alone —
	// view building and load recomputation excluded.
	SolveNs int64
	// Solver aggregates the solver-tier work counters of this epoch: the
	// vp packing attempts, drained from the persistent solvers.
	Solver obs.SolverStats
}

// Engine is the persistent allocation engine. It is not safe for concurrent
// use; Config.Workers is internal parallelism within one Reallocate call.
type Engine struct {
	cfg     Config
	configs []vp.Config

	slots  []slot
	free   []int
	byID   map[int]int // service id -> slot index
	live   []int       // slot indices of live services, unordered
	nextID int

	// Per-node aggregate loads over live placed services: requirement and
	// need sums, maintained incrementally between epochs and recomputed
	// canonically (ascending id) after each applied reallocation.
	reqLoads  []vec.Vec
	needLoads []vec.Vec

	threshold float64

	// Epoch view state, rebuilt in place by buildViews.
	ids       []int
	trueP     core.Problem
	estP      core.Problem
	threshBuf []float64 // backs thresholded est need vectors, 2·J·D
	placeBuf  core.Placement

	solvers []*vp.Solver // persistent solvers, one per worker (lazy)
}

// New validates cfg and returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("engine: no nodes")
	}
	d := cfg.Nodes[0].Aggregate.Dim()
	for h, n := range cfg.Nodes {
		if n.Aggregate.Dim() != d || n.Elementary.Dim() != d {
			return nil, fmt.Errorf("engine: node %d dimensionality mismatch", h)
		}
	}
	if d <= workload.CPU {
		return nil, fmt.Errorf("engine: %d-dimensional nodes have no CPU dimension", d)
	}
	e := &Engine{
		cfg:       cfg,
		configs:   hvp.LightStrategies(),
		byID:      make(map[int]int),
		reqLoads:  make([]vec.Vec, len(cfg.Nodes)),
		needLoads: make([]vec.Vec, len(cfg.Nodes)),
	}
	for h := range cfg.Nodes {
		e.reqLoads[h] = vec.New(d)
		e.needLoads[h] = vec.New(d)
	}
	e.trueP.Nodes = cfg.Nodes
	e.estP.Nodes = cfg.Nodes
	return e, nil
}

// Dim returns the resource dimensionality.
func (e *Engine) Dim() int { return e.cfg.Nodes[0].Aggregate.Dim() }

// EvaluateMinYield rebuilds the views and evaluates the current placement
// under the §6 error model: true needs running against the estimated
// (thresholded) view with the given CPU-sharing policy. Returns 1 for an
// empty cluster.
func (e *Engine) EvaluateMinYield(policy sched.Policy) float64 {
	if len(e.live) == 0 {
		return 1
	}
	e.buildViews()
	return sched.EvaluatePlacement(&e.trueP, &e.estP, e.placeBuf, policy, workload.CPU)
}

// Len returns the number of live services.
func (e *Engine) Len() int { return len(e.live) }

// SetThreshold sets the §6.2 mitigation threshold applied to estimated CPU
// needs when the views are built (0 disables).
func (e *Engine) SetThreshold(th float64) { e.threshold = th }

// Threshold returns the current mitigation threshold.
func (e *Engine) Threshold() float64 { return e.threshold }

// Add admits a service with the best-fit admission test of the online
// platform: among the nodes whose remaining requirement capacity fits the
// service's true rigid requirements, the one with the least remaining
// aggregate capacity wins. trueSvc carries the real needs, estSvc the
// scheduler's estimate (they share requirements). On admission the engine
// returns the assigned id and node; on rejection ok is false and no state
// changes.
func (e *Engine) Add(trueSvc, estSvc core.Service) (id, node int, ok bool) {
	id = e.nextID
	node, ok = e.AdmitWithID(id, trueSvc, estSvc)
	if !ok {
		return 0, -1, false
	}
	return id, node, true
}

// AdmitWithID runs the same best-fit admission test as Add but installs the
// service under a caller-chosen id — the primitive a shard router uses to
// keep one global id space across several engines. The id must not be live
// in this engine; the next fresh id is bumped past it on success. The
// arithmetic (fit test, score, load accumulation) is bit-identical to Add.
func (e *Engine) AdmitWithID(id int, trueSvc, estSvc core.Service) (node int, ok bool) {
	if _, dup := e.byID[id]; dup || id < 0 {
		return -1, false
	}
	best, bestScore := -1, math.Inf(1)
	for h := range e.cfg.Nodes {
		if !trueSvc.FitsRequirements(&e.cfg.Nodes[h], e.reqLoads[h]) {
			continue
		}
		rem := vec.SumDiff(e.cfg.Nodes[h].Aggregate, e.reqLoads[h])
		if rem < bestScore {
			best, bestScore = h, rem
		}
	}
	if best < 0 {
		return -1, false
	}
	si := e.allocSlot()
	sl := &e.slots[si]
	sl.id = id
	if id >= e.nextID {
		e.nextID = id + 1
	}
	sl.trueSvc = trueSvc.Clone()
	sl.estSvc = estSvc.Clone()
	sl.node = best
	sl.used = true
	sl.livePos = len(e.live)
	e.live = append(e.live, si)
	e.byID[sl.id] = si
	e.reqLoads[best].AccumAdd(sl.trueSvc.ReqAgg)
	e.needLoads[best].AccumAdd(sl.trueSvc.NeedAgg)
	return best, true
}

// Headroom returns the total residual aggregate requirement capacity across
// all nodes — the admission-relevant free space a shard router scores
// placement domains by. Dimensions are summed with the same arithmetic the
// best-fit admission score uses per node.
func (e *Engine) Headroom() float64 {
	total := 0.0
	for h := range e.cfg.Nodes {
		total += vec.SumDiff(e.cfg.Nodes[h].Aggregate, e.reqLoads[h])
	}
	return total
}

// Remove departs a live service in O(1) (slab free-list plus swap-remove of
// the live list — no linear scan of the arrival order). It reports whether
// the id was live.
func (e *Engine) Remove(id int) bool {
	si, ok := e.byID[id]
	if !ok {
		return false
	}
	sl := &e.slots[si]
	if sl.node >= 0 {
		e.reqLoads[sl.node].AccumSub(sl.trueSvc.ReqAgg)
		e.needLoads[sl.node].AccumSub(sl.trueSvc.NeedAgg)
	}
	// Swap-remove from the live list.
	last := e.live[len(e.live)-1]
	e.live[sl.livePos] = last
	e.slots[last].livePos = sl.livePos
	e.live = e.live[:len(e.live)-1]
	delete(e.byID, id)
	sl.used = false
	sl.trueSvc, sl.estSvc = core.Service{}, core.Service{}
	e.free = append(e.free, si)
	return true
}

// UpdateNeeds replaces the fluid needs of a live service (true and
// estimated); requirements are rigid and cannot change in place. The need
// loads are adjusted incrementally. It reports whether the id was live.
func (e *Engine) UpdateNeeds(id int, trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg vec.Vec) bool {
	si, ok := e.byID[id]
	if !ok {
		return false
	}
	sl := &e.slots[si]
	if sl.node >= 0 {
		e.needLoads[sl.node].AccumSub(sl.trueSvc.NeedAgg)
	}
	sl.trueSvc.NeedElem = trueNeedElem.Clone()
	sl.trueSvc.NeedAgg = trueNeedAgg.Clone()
	sl.estSvc.NeedElem = estNeedElem.Clone()
	sl.estSvc.NeedAgg = estNeedAgg.Clone()
	if sl.node >= 0 {
		e.needLoads[sl.node].AccumAdd(sl.trueSvc.NeedAgg)
	}
	return true
}

// Service returns shallow copies of a live service's true and estimated
// descriptors. The vectors are shared with engine state and must not be
// mutated.
func (e *Engine) Service(id int) (trueSvc, estSvc core.Service, ok bool) {
	si, found := e.byID[id]
	if !found {
		return core.Service{}, core.Service{}, false
	}
	return e.slots[si].trueSvc, e.slots[si].estSvc, true
}

// Node returns the node currently hosting id, or false when id is not live.
func (e *Engine) Node(id int) (int, bool) {
	si, ok := e.byID[id]
	if !ok {
		return -1, false
	}
	return e.slots[si].node, true
}

func (e *Engine) allocSlot() int {
	if n := len(e.free); n > 0 {
		si := e.free[n-1]
		e.free = e.free[:n-1]
		return si
	}
	e.slots = append(e.slots, slot{})
	return len(e.slots) - 1
}

// buildViews refreshes the true and estimated problem views plus the current
// placement buffer, in ascending id order (equal to arrival order, since ids
// are assigned monotonically), recycling every backing array. The estimated
// view carries the mitigation threshold: services whose estimated CPU need
// falls below it get scratch-backed need vectors mirroring the arithmetic of
// sched.ApplyThreshold exactly, so placements match the clone-based path
// bit for bit.
func (e *Engine) buildViews() {
	d := e.Dim()
	cpu := workload.CPU
	th := e.threshold
	j := len(e.live)
	e.ids = sliceutil.Grow(e.ids, j)
	for i, si := range e.live {
		e.ids[i] = e.slots[si].id
	}
	sort.Ints(e.ids)
	e.trueP.Services = sliceutil.Grow(e.trueP.Services, j)
	e.estP.Services = sliceutil.Grow(e.estP.Services, j)
	e.placeBuf = sliceutil.Grow(e.placeBuf, j)
	e.threshBuf = sliceutil.Grow(e.threshBuf, 2*j*d)
	for i, id := range e.ids {
		sl := &e.slots[e.byID[id]]
		e.trueP.Services[i] = sl.trueSvc
		es := sl.estSvc
		if th > 0 && es.NeedAgg[cpu] < th {
			old := es.NeedAgg[cpu]
			na := vec.Vec(e.threshBuf[2*i*d : (2*i+1)*d])
			ne := vec.Vec(e.threshBuf[(2*i+1)*d : (2*i+2)*d])
			copy(na, es.NeedAgg)
			copy(ne, es.NeedElem)
			na[cpu] = th
			if old > 0 {
				ne[cpu] *= th / old
				if ne[cpu] > th {
					ne[cpu] = th
				}
			} else {
				ne[cpu] = th
			}
			if ne[cpu] > na[cpu] {
				ne[cpu] = na[cpu]
			}
			es.NeedAgg, es.NeedElem = na, ne
		}
		e.estP.Services[i] = es
		e.placeBuf[i] = sl.node
	}
}

// TrueView returns the true problem view of the last epoch (valid until the
// next Reallocate/Repair/Add/Remove).
func (e *Engine) TrueView() *core.Problem { return &e.trueP }

// EstView returns the estimated (thresholded) problem view of the last
// epoch.
func (e *Engine) EstView() *core.Problem { return &e.estP }

// ViewPlacement returns the placement of the live services as of the last
// view build, in IDs order.
func (e *Engine) ViewPlacement() core.Placement { return e.placeBuf }

// solve runs the configured placer over the estimated view.
func (e *Engine) solve() *core.Result {
	if e.cfg.Placer != nil {
		return e.cfg.Placer(&e.estP)
	}
	if e.solvers == nil {
		e.solvers = hvp.NewSolverPool(&e.estP, e.cfg.Workers)
	} else {
		for _, s := range e.solvers {
			s.Rebind(&e.estP)
		}
	}
	return hvp.MetaDeterministicSolvers(e.solvers, e.configs, vp.SearchOptions{})
}

// takeSolverStats drains the persistent vp solvers' pack counters (the
// workers are joined before solve returns, so the drain is race-free).
func (e *Engine) takeSolverStats() obs.SolverStats {
	var v vp.Stats
	for _, s := range e.solvers {
		v.Add(s.TakeStats())
	}
	return obs.SolverStats{
		VPPacks:       int64(v.Packs),
		VPPacksSolved: int64(v.PacksSolved),
		VPStepsPruned: int64(v.StepsPruned),
	}
}

// apply commits a solved placement (in IDs order), counting migrations of
// already-placed services, then recomputes the per-node loads canonically in
// ascending id order — resetting incremental floating-point drift every
// epoch.
func (e *Engine) apply(res *core.Result) int {
	migrations := 0
	for i, id := range e.ids {
		sl := &e.slots[e.byID[id]]
		if sl.node != res.Placement[i] {
			if sl.node >= 0 {
				migrations++
			}
			sl.node = res.Placement[i]
		}
	}
	e.recomputeLoads()
	return migrations
}

// recomputeLoads rebuilds the per-node load vectors from scratch in
// ascending id order.
func (e *Engine) recomputeLoads() {
	for h := range e.reqLoads {
		e.reqLoads[h].Zero()
		e.needLoads[h].Zero()
	}
	for _, id := range e.ids {
		sl := &e.slots[e.byID[id]]
		if sl.node >= 0 {
			e.reqLoads[sl.node].AccumAdd(sl.trueSvc.ReqAgg)
			e.needLoads[sl.node].AccumAdd(sl.trueSvc.NeedAgg)
		}
	}
}

// Reallocate rebuilds the views and runs a full reallocation epoch with the
// configured placer. On success the new placement is applied (migrations
// counted); on failure the previous placement is kept and the caller can
// evaluate ViewPlacement against the views.
func (e *Engine) Reallocate() *EpochReport {
	e.buildViews()
	rep := &EpochReport{IDs: e.ids, Services: len(e.ids)}
	if len(e.ids) == 0 {
		rep.Result = &core.Result{Solved: true}
		return rep
	}
	start := e.clockNow()
	rep.Result = e.solve()
	rep.SolveNs = e.clockSince(start)
	rep.Solver = e.takeSolverStats()
	if rep.Result.Solved {
		rep.Migrations = e.apply(rep.Result)
	}
	return rep
}

// Repair rebuilds the views and runs a migration-bounded incremental repair
// epoch (internal/opt): still-feasible services stay put and at most budget
// previously-placed services move (negative = unlimited).
func (e *Engine) Repair(budget int) *EpochReport {
	e.buildViews()
	rep := &EpochReport{IDs: e.ids, Services: len(e.ids)}
	if len(e.ids) == 0 {
		rep.Result = &core.Result{Solved: true}
		return rep
	}
	start := e.clockNow()
	rep.Result = opt.Repair(&e.estP, e.placeBuf, budget)
	rep.SolveNs = e.clockSince(start)
	rep.Solver = e.takeSolverStats()
	if rep.Result.Solved {
		rep.Migrations = e.apply(rep.Result)
	}
	return rep
}

// clockNow reads the injected clock, or the zero time when no clock was
// wired (SolveNs then reports zero — the engine itself never calls
// time.Now; see Config.Now).
func (e *Engine) clockNow() time.Time {
	if e.cfg.Now == nil {
		return time.Time{}
	}
	return e.cfg.Now()
}

// clockSince returns the elapsed nanoseconds since start on the injected
// clock, or zero without one.
func (e *Engine) clockSince(start time.Time) int64 {
	if e.cfg.Now == nil {
		return 0
	}
	return e.cfg.Now().Sub(start).Nanoseconds()
}

// Snapshot returns a deep copy of the cluster as a placement problem: the
// true view, the current placement and the live ids, all freshly allocated.
func (e *Engine) Snapshot() (*core.Problem, core.Placement, []int) {
	e.buildViews()
	p := e.trueP.Clone()
	return p, e.placeBuf.Clone(), append([]int(nil), e.ids...)
}
