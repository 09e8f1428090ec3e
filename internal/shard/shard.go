// Package shard decomposes the node park into K near-independent placement
// domains so the online tier scales with cores instead of park size.
//
// The paper's introduction motivates hosting on federated platforms: several
// internally-homogeneous clusters pooled into one heterogeneous park. One
// engine over the whole park serializes every mutation and every epoch
// through a single solver, so epoch latency grows with total service count.
// A Router instead partitions the park into K contiguous placement domains,
// each owning its own engine.Engine (and therefore its own arena vp.Solvers
// and LP warm-start basis), and
//
//   - admits services by shard headroom: the classic best-of-two-choices
//     load-balancing rule over estimated residual aggregate capacity, made
//     deterministic (and recovery-stable) by hashing a fixed seed with the
//     service id instead of drawing from a stateful RNG;
//   - runs reallocation and repair epochs scatter-gather, one goroutine per
//     shard, merging results into a global minimum yield; each shard's
//     engine races its strategy roster on max(1, GOMAXPROCS/K) workers
//     (engine.DomainWorkers), a count that never changes a result;
//   - rebalances across shards when the bottleneck shard's yield trails the
//     median by a configurable gap, migrating its heaviest services into
//     the shard with the most headroom and re-solving the affected domains.
//
// Shards are fully independent placement subproblems (the same block
// structure two-stage stochastic IP decompositions exploit), so per-shard
// epochs run concurrently without locks, and under the durable tier each
// shard journals to its own WAL directory. Service ids remain global: the
// router owns the id space and installs services into shard engines via
// engine.AdmitWithID, so a service keeps its identity when it migrates
// between shards.
//
// With K=1 every code path reduces to the single-engine arithmetic of
// engine.Engine — the shard_test equivalence suite pins the K=1 trajectory
// bit-identical to an unsharded engine.
package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"vmalloc/internal/core"
	"vmalloc/internal/engine"
	"vmalloc/internal/obs"
	"vmalloc/internal/sched"
	"vmalloc/internal/vec"
)

// Default rebalance tuning: a bottleneck shard must trail the median shard
// yield by more than DefaultGap before the router migrates services out of
// it, and one epoch moves at most DefaultMoves services.
const (
	DefaultGap   = 0.1
	DefaultMoves = 2
)

// Config parameterizes a Router.
type Config struct {
	// Nodes is the full node park, split into Shards contiguous domains.
	Nodes []core.Node
	// Shards is the domain count K; it must satisfy 1 <= K <= len(Nodes).
	Shards int
	// Seed fixes the best-of-two-choices admission hash. Two routers with
	// the same seed and history admit identically.
	Seed int64
	// Gap is the rebalance trigger: migrate out of the bottleneck shard
	// when the median shard yield exceeds its yield by more than Gap.
	// 0 selects DefaultGap; negative disables rebalancing.
	Gap float64
	// Moves caps the services migrated per rebalance pass. 0 selects
	// DefaultMoves; negative disables rebalancing.
	Moves int

	// Per-domain engine knobs, as in engine.Config. The worker count is not
	// among them: every domain gets engine.DomainWorkers(Shards).
	CPUDim     int
	Tol        float64
	Placer     engine.Placer
	UseLPBound bool
	// Now is the injected wall clock forwarded to every domain engine for
	// EpochReport.SolveNs stamping; nil leaves solve times zero. The router
	// is determinism-critical and never reads the clock itself.
	Now func() time.Time
}

func (cfg *Config) gap() float64 {
	if cfg.Gap == 0 { //vmalloc:nondet-ok Gap==0 is an exact config sentinel selecting the default
		return DefaultGap
	}
	return cfg.Gap
}

func (cfg *Config) moves() int {
	if cfg.Moves == 0 {
		return DefaultMoves
	}
	return cfg.Moves
}

// Op identifies the kind of mutation an Event reports.
type Op uint8

const (
	// OpAdd is a successful admission into Event.Shard.
	OpAdd Op = iota + 1
	// OpRemove is a departure from Event.Shard.
	OpRemove
	// OpUpdateNeeds replaced a live service's fluid needs.
	OpUpdateNeeds
	// OpSetThreshold changed the mitigation threshold of Event.Shard (the
	// router emits one event per shard so each WAL carries its own copy).
	OpSetThreshold
	// OpEpoch applied a solved per-shard reallocation or repair epoch.
	OpEpoch
	// OpMoveIn installed a rebalanced service into Event.Shard. It replays
	// exactly like OpAdd; the distinct op (and Gen) let a durable tier
	// reconcile a move torn across two shard WALs.
	OpMoveIn
	// OpMoveOut departed a rebalanced service from Event.Shard. It replays
	// exactly like OpRemove.
	OpMoveOut
)

// Event describes one applied mutation of a single shard, delivered to the
// router's hook after the in-memory state changed — the sharded counterpart
// of the cluster event seam the durable tier journals through. Node indices
// are SHARD-LOCAL (each shard's WAL replays onto its own engine); the
// router's public accessors translate to park-global indices.
//
// Slice and pointer fields may alias engine-owned buffers and are valid only
// for the duration of the hook call.
type Event struct {
	Shard int
	Op    Op

	// ID names the service (OpAdd, OpRemove, OpUpdateNeeds, OpMove*).
	ID int
	// Node is the shard-local admission placement (OpAdd, OpMoveIn).
	Node int
	// Gen is the per-service move generation (OpMoveIn, OpMoveOut): the
	// n-th cross-shard migration of a service carries gen n. A durable
	// tier uses it to keep the newest copy when a crash leaves a moved
	// service live in two shards.
	Gen uint64
	// TrueSvc and EstSvc are the installed descriptors (OpAdd, OpMoveIn).
	TrueSvc, EstSvc *core.Service
	// Needs are the new true elem/agg and estimated elem/agg vectors
	// (OpUpdateNeeds).
	Needs [4]vec.Vec
	// Threshold is the new mitigation threshold (OpSetThreshold).
	Threshold float64
	// Epoch payload (OpEpoch): the shard's live ids in view order and the
	// shard-local placement applied to them.
	IDs        []int
	Placement  core.Placement
	Repair     bool
	Budget     int
	Migrations int
	MinYield   float64
}

// domain is one placement shard: a contiguous slice of the park with its own
// persistent engine.
type domain struct {
	index  int
	offset int // park-global index of the first node
	eng    *engine.Engine

	lastYield  float64
	lastSolved bool

	epochs       uint64
	failedEpochs uint64
	movedOut     uint64
	movedIn      uint64
}

// Router is the sharded allocation engine: K placement domains behind
// deterministic headroom-based admission and scatter-gather epochs. Like
// engine.Engine it is not safe for concurrent use; the internal parallelism
// (one goroutine per shard during epochs, each with its roster workers) is
// invisible to callers.
type Router struct {
	cfg     Config
	domains []*domain
	byID    map[int]int // global service id -> shard index
	nextID  int
	moveGen map[int]uint64 // per-service cross-shard move counter
	hook    func(*Event)

	headroomBuf []float64
	orderBuf    []int
}

// Partition returns the node range of shard s over h nodes in k shards:
// contiguous blocks differing in size by at most one. It is the single
// source of truth for the park partition — engines, recovery validation and
// the public NodeRange all derive from it.
func Partition(h, k, s int) (lo, hi int) {
	return s * h / k, (s + 1) * h / k
}

// New validates cfg and returns an empty router.
func New(cfg Config) (*Router, error) { return newRouter(cfg, nil) }

// newRouter validates cfg and builds the K domain engines, shard s from
// states[s] (a nil slice or entry bootstraps an empty shard). Every engine
// runs engine.DomainWorkers(K) workers: the K domains already solve
// concurrently, so each races its roster only on the cores left over.
func newRouter(cfg Config, states []*engine.State) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards (want >= 1)", cfg.Shards)
	}
	if cfg.Shards > len(cfg.Nodes) {
		return nil, fmt.Errorf("shard: %d shards over %d nodes (want <= nodes)", cfg.Shards, len(cfg.Nodes))
	}
	r := &Router{
		cfg:         cfg,
		byID:        make(map[int]int),
		moveGen:     make(map[int]uint64),
		headroomBuf: make([]float64, cfg.Shards),
		orderBuf:    make([]int, 0, cfg.Shards),
	}
	workers := engine.DomainWorkers(cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		lo, hi := Partition(len(cfg.Nodes), cfg.Shards, s)
		ecfg := engine.Config{
			Nodes:      cfg.Nodes[lo:hi],
			CPUDim:     cfg.CPUDim,
			Tol:        cfg.Tol,
			Placer:     cfg.Placer,
			Workers:    workers,
			UseLPBound: cfg.UseLPBound,
			Now:        cfg.Now,
		}
		var eng *engine.Engine
		var err error
		if states == nil || states[s] == nil {
			eng, err = engine.New(ecfg)
		} else {
			eng, err = engine.Restore(ecfg, states[s])
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.domains = append(r.domains, &domain{index: s, offset: lo, eng: eng, lastYield: math.NaN()})
	}
	return r, nil
}

// SetHook installs fn as the router's mutation observer (nil uninstalls).
// Events fire synchronously after every applied state change, in application
// order.
func (r *Router) SetHook(fn func(*Event)) { r.hook = fn }

// Shards returns the domain count K.
func (r *Router) Shards() int { return len(r.domains) }

// Len returns the number of live services across all shards.
func (r *Router) Len() int { return len(r.byID) }

// Dim returns the resource dimensionality.
func (r *Router) Dim() int { return r.domains[0].eng.Dim() }

// Nodes returns the full node park (not to be mutated).
func (r *Router) Nodes() []core.Node { return r.cfg.Nodes }

// NodeRange returns the park-global [lo, hi) node interval of shard s.
func (r *Router) NodeRange(s int) (lo, hi int) {
	return Partition(len(r.cfg.Nodes), len(r.domains), s)
}

// Engine returns shard s's engine, for state capture and tests. Callers must
// not mutate services through it (the router's id map would go stale).
func (r *Router) Engine(s int) *engine.Engine { return r.domains[s].eng }

// Threshold returns the current mitigation threshold.
func (r *Router) Threshold() float64 { return r.domains[0].eng.Threshold() }

// splitmix64 is the SplitMix64 finalizer: a well-mixed 64-bit hash used to
// derive the two admission candidates from (seed, id) without any stateful
// RNG — so admission is a pure function of history and survives recovery.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// admissionOrder returns the deterministic shard candidate order for
// admitting service id: the better of two hashed choices first (higher
// estimated residual capacity, ties to the lower index), then the other
// choice, then every remaining shard by descending headroom. Trying the
// full ordered list means a feasible service is never rejected just because
// both sampled shards happened to be full.
func (r *Router) admissionOrder(id int) []int {
	k := len(r.domains)
	r.orderBuf = r.orderBuf[:0]
	if k == 1 {
		return append(r.orderBuf, 0)
	}
	for s, d := range r.domains {
		r.headroomBuf[s] = d.eng.Headroom()
	}
	h := splitmix64(uint64(r.cfg.Seed) ^ splitmix64(uint64(id)+1))
	a := int(h % uint64(k))
	b := int((h >> 32) % uint64(k))
	if a != b && (r.headroomBuf[b] > r.headroomBuf[a] ||
		(r.headroomBuf[b] == r.headroomBuf[a] && b < a)) { //vmalloc:nondet-ok headroom tie-break: exact equality is required for a deterministic total order
		a, b = b, a
	}
	r.orderBuf = append(r.orderBuf, a)
	if b != a {
		r.orderBuf = append(r.orderBuf, b)
	}
	head := len(r.orderBuf) // the hashed choices; everything after is fallback
	for s := range r.domains {
		if s != a && s != b {
			r.orderBuf = append(r.orderBuf, s)
		}
	}
	rest := r.orderBuf[head:]
	sort.SliceStable(rest, func(i, j int) bool {
		hi, hj := r.headroomBuf[rest[i]], r.headroomBuf[rest[j]]
		if hi != hj { //vmalloc:nondet-ok comparator tie-break: exact equality is required for a deterministic total order
			return hi > hj
		}
		return rest[i] < rest[j]
	})
	return r.orderBuf
}

// Add admits a service under the deterministic two-choice headroom rule.
// The returned node index is park-global; shard names the owning domain.
// On rejection (no shard can host the service) ok is false and no state
// changes.
func (r *Router) Add(trueSvc, estSvc core.Service) (id, shard, node int, ok bool) {
	return r.addOne(trueSvc, estSvc)
}

// addOne is the single admission code path shared by Add and AddBatch: the
// deterministic candidate order, the engine install, the id-map update and
// the hook event. Batch admission is therefore bit-identical to the same
// services admitted one call at a time.
func (r *Router) addOne(trueSvc, estSvc core.Service) (id, shard, node int, ok bool) {
	id = r.nextID
	for _, s := range r.admissionOrder(id) {
		local, admitted := r.domains[s].eng.AdmitWithID(id, trueSvc, estSvc)
		if !admitted {
			continue
		}
		r.byID[id] = s
		r.nextID = id + 1
		if r.hook != nil {
			ts, es, _ := r.domains[s].eng.Service(id)
			r.hook(&Event{Op: OpAdd, Shard: s, ID: id, Node: local, TrueSvc: &ts, EstSvc: &es})
		}
		return id, s, r.domains[s].offset + local, true
	}
	return 0, -1, -1, false
}

// AddEntry is one service of a bulk admission.
type AddEntry struct {
	TrueSvc, EstSvc core.Service
}

// AddResult is the per-entry outcome of a bulk admission: the admitted id,
// owning shard and park-global node, or OK=false when no shard could host
// the entry.
type AddResult struct {
	ID    int
	Shard int
	Node  int
	OK    bool
}

// AddBatch admits entries in order through the same deterministic two-choice
// admission as Add, appending one AddResult per entry to out (allocating when
// out lacks capacity). Each admission sees the headroom left by the previous
// one, so the batch trajectory — ids, shard choices, hook events — is exactly
// the trajectory of len(entries) sequential Add calls; the batching win is in
// the layers above, which journal a batch's admissions per shard under a
// single group-commit fsync instead of one ticket per record.
func (r *Router) AddBatch(entries []AddEntry, out []AddResult) []AddResult {
	for i := range entries {
		id, s, node, ok := r.addOne(entries[i].TrueSvc, entries[i].EstSvc)
		out = append(out, AddResult{ID: id, Shard: s, Node: node, OK: ok})
	}
	return out
}

// Remove departs a live service in O(1). It reports whether id was live.
func (r *Router) Remove(id int) bool {
	s, ok := r.byID[id]
	if !ok {
		return false
	}
	r.domains[s].eng.Remove(id)
	delete(r.byID, id)
	delete(r.moveGen, id)
	if r.hook != nil {
		r.hook(&Event{Op: OpRemove, Shard: s, ID: id})
	}
	return true
}

// UpdateNeeds replaces the fluid needs of a live service. It reports whether
// the id was live.
func (r *Router) UpdateNeeds(id int, trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg vec.Vec) bool {
	s, ok := r.byID[id]
	if !ok {
		return false
	}
	r.domains[s].eng.UpdateNeeds(id, trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg)
	if r.hook != nil {
		r.hook(&Event{Op: OpUpdateNeeds, Shard: s, ID: id,
			Needs: [4]vec.Vec{trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg}})
	}
	return true
}

// SetThreshold sets the §6.2 mitigation threshold on every shard, emitting
// one event per shard so each shard's WAL carries its own copy.
func (r *Router) SetThreshold(th float64) {
	for s, d := range r.domains {
		d.eng.SetThreshold(th)
		if r.hook != nil {
			r.hook(&Event{Op: OpSetThreshold, Shard: s, Threshold: th})
		}
	}
}

// Node returns the park-global node currently hosting id.
func (r *Router) Node(id int) (int, bool) {
	s, ok := r.byID[id]
	if !ok {
		return -1, false
	}
	local, _ := r.domains[s].eng.Node(id)
	if local < 0 {
		return local, true
	}
	return r.domains[s].offset + local, true
}

// Shard returns the domain owning id.
func (r *Router) Shard(id int) (int, bool) {
	s, ok := r.byID[id]
	return s, ok
}

// Epoch is the merged outcome of one sharded Reallocate or Repair.
type Epoch struct {
	// Result is the merged solve outcome. Solved means every non-empty
	// shard holds a solved placement; MinYield is the minimum over their
	// yields (1 when the park is empty); Placement is park-global, aligned
	// with IDs. With K=1 it is the single engine's Result, untouched.
	Result *core.Result
	// IDs are the live service ids in ascending order.
	IDs []int
	// Migrations counts services that changed node, cross-shard moves
	// included.
	Migrations int
	// RebalanceMoves counts the services migrated between shards by the
	// rebalance pass of this epoch.
	RebalanceMoves int
	// Stats carries the per-shard solver telemetry of this epoch (solve
	// wall time and solver-tier work counters, rebalance re-solves
	// included).
	Stats *obs.EpochStats
}

// scatter runs fn over every shard concurrently (one goroutine per shard)
// and gathers the per-shard reports. Shard engines are disjoint, so the only
// synchronization needed is the join. When ctx carries a tracing span, each
// shard's solve runs under its own child span.
func (r *Router) scatter(ctx context.Context, fn func(*domain) *engine.EpochReport) []*engine.EpochReport {
	reps := make([]*engine.EpochReport, len(r.domains))
	parent := obs.SpanFromContext(ctx)
	run := func(s int, d *domain) *engine.EpochReport {
		sp := parent.StartChild("shard_epoch")
		sp.SetInt("shard", int64(s))
		rep := fn(d)
		sp.SetInt("services", int64(rep.Services))
		sp.End()
		return rep
	}
	if len(r.domains) == 1 {
		reps[0] = run(0, r.domains[0])
		return reps
	}
	var wg sync.WaitGroup
	for s, d := range r.domains {
		wg.Add(1)
		go func(s int, d *domain) {
			defer wg.Done()
			reps[s] = run(s, d)
		}(s, d)
	}
	wg.Wait()
	return reps
}

// noteEpoch updates per-domain stats and emits the epoch event for one
// per-shard report. Events are emitted sequentially after the scatter join,
// in shard order, so hook consumers see a deterministic stream.
func (r *Router) noteEpoch(s int, rep *engine.EpochReport, repair bool, budget int) {
	d := r.domains[s]
	d.epochs++
	if !rep.Result.Solved {
		d.failedEpochs++
		d.lastSolved = false
		return
	}
	if len(rep.IDs) > 0 {
		d.lastYield = rep.Result.MinYield
		d.lastSolved = true
		if r.hook != nil {
			r.hook(&Event{
				Op: OpEpoch, Shard: s,
				IDs: rep.IDs, Placement: rep.Result.Placement,
				Repair: repair, Budget: budget,
				Migrations: rep.Migrations, MinYield: rep.Result.MinYield,
			})
		}
	} else {
		d.lastYield = math.NaN()
		d.lastSolved = true
	}
}

// Reallocate runs one full reallocation epoch on every shard concurrently,
// then a cross-shard rebalance pass when the bottleneck shard trails the
// median yield by more than the configured gap.
func (r *Router) Reallocate() *Epoch { return r.ReallocateCtx(context.Background()) }

// ReallocateCtx is Reallocate under a tracing context: each shard's solve
// gets a child span of the span carried by ctx. The placement trajectory is
// identical to Reallocate.
func (r *Router) ReallocateCtx(ctx context.Context) *Epoch {
	reps := r.scatter(ctx, func(d *domain) *engine.EpochReport { return d.eng.Reallocate() })
	for s, rep := range reps {
		r.noteEpoch(s, rep, false, 0)
	}
	first := make([]*engine.EpochReport, len(reps))
	copy(first, reps)
	moves, carried := r.rebalance(reps)
	ep := r.merge(reps, moves, carried)
	ep.Stats = r.epochStats(first, reps)
	return ep
}

// Repair runs one migration-bounded repair epoch on every shard
// concurrently; budget applies per shard (negative = unlimited). Repair
// epochs skip the rebalance pass — they exist to bound migrations.
func (r *Router) Repair(budget int) *Epoch { return r.RepairCtx(context.Background(), budget) }

// RepairCtx is Repair under a tracing context.
func (r *Router) RepairCtx(ctx context.Context, budget int) *Epoch {
	reps := r.scatter(ctx, func(d *domain) *engine.EpochReport { return d.eng.Repair(budget) })
	for s, rep := range reps {
		r.noteEpoch(s, rep, true, budget)
	}
	ep := r.merge(reps, 0, 0)
	ep.Stats = r.epochStats(reps, reps)
	return ep
}

// epochStats folds the per-shard reports into the epoch's telemetry
// payload. first holds each shard's initial solve, final the report left
// after the rebalance pass (the same pointer when the shard was not
// re-solved); a re-solved shard's counters and solve time are summed over
// both solves while the outcome fields come from the final report.
func (r *Router) epochStats(first, final []*engine.EpochReport) *obs.EpochStats {
	st := &obs.EpochStats{Shards: make([]obs.ShardEpoch, len(final))}
	for s, rep := range final {
		se := obs.ShardEpoch{
			Shard:      s,
			Solved:     rep.Result.Solved,
			Services:   rep.Services,
			Migrations: rep.Migrations,
			SolveNs:    rep.SolveNs,
			Solver:     rep.Solver,
		}
		if rep.Result.Solved && rep.Services > 0 {
			se.MinYield = rep.Result.MinYield
		}
		if fr := first[s]; fr != rep {
			se.SolveNs += fr.SolveNs
			se.Solver.Add(fr.Solver)
			se.Migrations += fr.Migrations
		}
		st.SolveNs += se.SolveNs
		st.Solver.Add(se.Solver)
		st.Shards[s] = se
	}
	return st
}

// rebalance migrates services out of the bottleneck shard when its yield
// trails the median shard yield by more than the configured gap, then
// re-runs reallocation on the affected shards. It returns the number of
// services moved plus the migrations the affected shards' first solves had
// already applied (their reports are overwritten by the re-solve, so the
// caller must carry those into the epoch total). All choices are
// deterministic: the bottleneck is the lowest-yield shard (ties to the
// lower index), candidates leave in descending estimated CPU need (ties to
// the lower id), and targets are tried in descending headroom (ties to the
// lower index).
func (r *Router) rebalance(reps []*engine.EpochReport) (moved, carried int) {
	if len(r.domains) < 2 || r.cfg.gap() < 0 || r.cfg.moves() < 0 {
		return 0, 0
	}
	yields := make([]float64, 0, len(r.domains))
	bottleneck := -1
	for s, rep := range reps {
		if rep == nil || !rep.Result.Solved || len(rep.IDs) == 0 {
			continue
		}
		yields = append(yields, rep.Result.MinYield)
		if bottleneck < 0 || rep.Result.MinYield < reps[bottleneck].Result.MinYield {
			bottleneck = s
		}
	}
	if len(yields) < 2 {
		return 0, 0
	}
	sort.Float64s(yields)
	median := yields[len(yields)/2]
	if len(yields)%2 == 0 {
		median = (yields[len(yields)/2-1] + yields[len(yields)/2]) / 2
	}
	if median-reps[bottleneck].Result.MinYield <= r.cfg.gap() {
		return 0, 0
	}

	// Candidates: the bottleneck's services, heaviest estimated CPU need
	// first. Moving the heavy hitters relieves the most pressure per move.
	cpu := r.cfg.CPUDim
	src := r.domains[bottleneck]
	type cand struct {
		id   int
		need float64
	}
	cands := make([]cand, 0, len(reps[bottleneck].IDs))
	for _, id := range reps[bottleneck].IDs {
		_, est, _ := src.eng.Service(id)
		cands = append(cands, cand{id: id, need: est.NeedAgg[cpu]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].need != cands[j].need { //vmalloc:nondet-ok comparator tie-break: exact equality is required for a deterministic total order
			return cands[i].need > cands[j].need
		}
		return cands[i].id < cands[j].id
	})

	targets := make([]int, 0, len(r.domains)-1)
	for s := range r.domains {
		if s != bottleneck {
			targets = append(targets, s)
		}
	}

	touched := map[int]bool{}
	for _, c := range cands {
		if moved >= r.cfg.moves() {
			break
		}
		// Re-rank targets by current headroom before every move: each
		// admission changes the landscape.
		sort.SliceStable(targets, func(i, j int) bool {
			hi, hj := r.domains[targets[i]].eng.Headroom(), r.domains[targets[j]].eng.Headroom()
			if hi != hj { //vmalloc:nondet-ok comparator tie-break: exact equality is required for a deterministic total order
				return hi > hj
			}
			return targets[i] < targets[j]
		})
		ts, es, _ := src.eng.Service(c.id)
		trueSvc, estSvc := cloneService(ts), cloneService(es)
		for _, t := range targets {
			local, ok := r.domains[t].eng.AdmitWithID(c.id, trueSvc, estSvc)
			if !ok {
				continue
			}
			gen := r.moveGen[c.id] + 1
			r.moveGen[c.id] = gen
			// Hook order matters for durability: the destination's
			// move-in is journaled (and fsynced, see server.Store)
			// before the source's move-out, so a crash can duplicate a
			// moving service across WALs but never lose it.
			if r.hook != nil {
				its, ies, _ := r.domains[t].eng.Service(c.id)
				r.hook(&Event{Op: OpMoveIn, Shard: t, ID: c.id, Node: local, Gen: gen,
					TrueSvc: &its, EstSvc: &ies})
			}
			src.eng.Remove(c.id)
			if r.hook != nil {
				r.hook(&Event{Op: OpMoveOut, Shard: bottleneck, ID: c.id, Gen: gen})
			}
			r.byID[c.id] = t
			src.movedOut++
			r.domains[t].movedIn++
			touched[t] = true
			moved++
			break
		}
	}
	if moved == 0 {
		return 0, 0
	}

	// Re-solve the affected domains concurrently and refresh their reports;
	// their first solves' applied migrations must survive the overwrite.
	affected := append([]int{bottleneck}, sortedKeys(touched)...)
	for _, s := range affected {
		if reps[s].Result.Solved {
			carried += reps[s].Migrations
		}
	}
	var wg sync.WaitGroup
	for _, s := range affected {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reps[s] = r.domains[s].eng.Reallocate()
		}(s)
	}
	wg.Wait()
	for _, s := range affected {
		r.noteEpoch(s, reps[s], false, 0)
	}
	return moved, carried
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m { //vmalloc:nondet-ok inside sortedKeys itself: keys are collected then sorted before iteration
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func cloneService(s core.Service) core.Service {
	s.ReqElem = s.ReqElem.Clone()
	s.ReqAgg = s.ReqAgg.Clone()
	s.NeedElem = s.NeedElem.Clone()
	s.NeedAgg = s.NeedAgg.Clone()
	return s
}

// merge folds the per-shard reports into one park-global epoch. With K=1
// the single engine's report passes through untouched, which keeps the
// sharded trajectory bit-identical to an unsharded engine.
func (r *Router) merge(reps []*engine.EpochReport, moves, carried int) *Epoch {
	if len(r.domains) == 1 {
		rep := reps[0]
		return &Epoch{
			Result:     rep.Result,
			IDs:        rep.IDs,
			Migrations: rep.Migrations,
		}
	}
	// carried holds the migrations the affected shards' pre-rebalance solves
	// already applied; their reports were overwritten by the re-solve.
	ep := &Epoch{RebalanceMoves: moves, Migrations: moves + carried}
	solved := true
	minYield := math.Inf(1)
	anyServices := false
	type placed struct {
		id   int
		node int
	}
	var all []placed
	var yields []placedYield
	for s, rep := range reps {
		d := r.domains[s]
		if !rep.Result.Solved {
			solved = false
		}
		ep.Migrations += rep.Migrations
		if len(rep.IDs) == 0 {
			continue
		}
		anyServices = true
		if rep.Result.Solved && rep.Result.MinYield < minYield {
			minYield = rep.Result.MinYield
		}
		// The applied (or, for a failed shard solve, the kept) placement.
		pl := rep.Result.Placement
		if !rep.Result.Solved {
			pl = d.eng.ViewPlacement()
		}
		for i, id := range rep.IDs {
			node := core.Unplaced
			if i < len(pl) && pl[i] != core.Unplaced {
				node = d.offset + pl[i]
			}
			all = append(all, placed{id: id, node: node})
			if rep.Result.Solved && i < len(rep.Result.Yields) {
				yields = append(yields, placedYield{id: id, yield: rep.Result.Yields[i]})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	res := &core.Result{Solved: solved}
	ep.IDs = make([]int, len(all))
	res.Placement = make(core.Placement, len(all))
	for i, p := range all {
		ep.IDs[i] = p.id
		res.Placement[i] = p.node
	}
	if len(yields) == len(all) && solved {
		sort.Slice(yields, func(i, j int) bool { return yields[i].id < yields[j].id })
		res.Yields = make([]float64, len(yields))
		for i, y := range yields {
			res.Yields[i] = y.yield
		}
	}
	switch {
	case !anyServices:
		res.Solved = true // an empty park trivially solves, as in engine
	case math.IsInf(minYield, 1):
		res.MinYield = 0 // no shard produced a solved yield
	default:
		res.MinYield = minYield
	}
	ep.Result = res
	return ep
}

type placedYield struct {
	id    int
	yield float64
}

// MinYield evaluates the achieved minimum yield of the current placement
// under the §6 error model: the minimum over non-empty shards (scheduling is
// per-node, so the park-global minimum decomposes over domains). Returns 1
// for an empty park.
func (r *Router) MinYield(policy sched.Policy) float64 {
	y := math.Inf(1)
	any := false
	for _, d := range r.domains {
		if d.eng.Len() == 0 {
			continue
		}
		any = true
		if v := d.eng.EvaluateMinYield(policy); v < y {
			y = v
		}
	}
	if !any {
		return 1
	}
	return y
}

// Snapshot returns a detached park-global copy of the cluster: the true
// problem view over all nodes, the current placement with park-global node
// indices, and the live ids, ascending.
func (r *Router) Snapshot() (*core.Problem, core.Placement, []int) {
	p := &core.Problem{Nodes: make([]core.Node, 0, len(r.cfg.Nodes))}
	for _, n := range r.cfg.Nodes {
		p.Nodes = append(p.Nodes, core.Node{
			Name:       n.Name,
			Elementary: n.Elementary.Clone(),
			Aggregate:  n.Aggregate.Clone(),
		})
	}
	type entry struct {
		id   int
		svc  core.Service
		node int
	}
	var all []entry
	for _, d := range r.domains {
		sp, pl, ids := d.eng.Snapshot()
		for i, id := range ids {
			node := pl[i]
			if node != core.Unplaced {
				node += d.offset
			}
			all = append(all, entry{id: id, svc: sp.Services[i], node: node})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	pl := make(core.Placement, len(all))
	ids := make([]int, len(all))
	for i, e := range all {
		p.Services = append(p.Services, e.svc)
		pl[i] = e.node
		ids[i] = e.id
	}
	return p, pl, ids
}

// Stat is a point-in-time description of one placement domain.
type Stat struct {
	Shard    int     `json:"shard"`
	Nodes    int     `json:"nodes"`
	Services int     `json:"services"`
	Headroom float64 `json:"headroom"`
	// LastMinYield is the yield of the shard's last solved non-empty
	// epoch; YieldValid is false (and LastMinYield 0) before any.
	LastMinYield float64 `json:"last_min_yield"`
	YieldValid   bool    `json:"yield_valid"`
	Epochs       uint64  `json:"epochs"`
	FailedEpochs uint64  `json:"failed_epochs"`
	// MovedOut/MovedIn count cross-shard rebalance migrations.
	MovedOut uint64 `json:"moved_out"`
	MovedIn  uint64 `json:"moved_in"`
}

// Stats returns per-shard statistics, indexed by shard.
func (r *Router) Stats() []Stat {
	out := make([]Stat, len(r.domains))
	for s, d := range r.domains {
		lo, hi := r.NodeRange(s)
		out[s] = Stat{
			Shard:        s,
			Nodes:        hi - lo,
			Services:     d.eng.Len(),
			Headroom:     d.eng.Headroom(),
			Epochs:       d.epochs,
			FailedEpochs: d.failedEpochs,
			MovedOut:     d.movedOut,
			MovedIn:      d.movedIn,
		}
		if !math.IsNaN(d.lastYield) {
			out[s].LastMinYield, out[s].YieldValid = d.lastYield, true
		}
	}
	return out
}
