package vmalloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"vmalloc/internal/obs"
	"vmalloc/internal/shard"
)

// ErrUnknownService marks operations addressing a service id that is not
// live; match with errors.Is.
var ErrUnknownService = errors.New("no live service")

// Cluster is the persistent online allocation engine: a long-lived view of a
// hosting platform whose services arrive, depart and change needs over time,
// re-solved epoch by epoch without rebuilding solver state. It is the public
// face of the §8 "dynamic platform" future work — the same engine that backs
// the discrete-event simulator.
//
// The node park is partitioned into K placement domains (K=1 unless
// ShardedOptions.Shards says otherwise), each owning its own persistent
// engine — live services in a slab with O(1) admission and departure,
// per-node loads maintained incrementally, recycled problem views and warm
// solver arenas — behind a router that admits services by shard headroom
// (deterministic best-of-two-choices), runs reallocation epochs
// scatter-gather across the domains, and migrates services out of the
// bottleneck shard when its yield trails the median. A one-domain cluster is
// the paper's single platform: its trajectory is bit-identical to a bare
// engine over the same nodes.
//
// Each domain races its strategy roster on max(1, GOMAXPROCS/K) workers;
// the sweep keeps the lowest-index success, so placements for the same
// cluster history are identical at every core count. A Cluster is not safe
// for concurrent use (the epoch parallelism is internal).
type Cluster struct {
	r *shard.Router
}

// ClusterOptions tunes the engine of each placement domain, which places
// with METAHVPLIGHT at the paper's tolerance and reads CPU needs from
// dimension 0, as generated workloads lay them out. The zero value (nil
// pointer) starts without a mitigation threshold.
type ClusterOptions struct {
	// Threshold is the initial §6.2 mitigation threshold applied to
	// estimated CPU needs at reallocation (see SetThreshold).
	Threshold float64
}

// ShardedOptions tunes a Cluster of more than one placement domain. The
// cross-shard rebalance is fixed: it runs when the bottleneck shard's yield
// trails the median shard's by more than 0.1 and moves at most 2 services.
type ShardedOptions struct {
	ClusterOptions
	// Shards is the placement-domain count K (1 <= K <= len(nodes)); 0
	// selects 1.
	Shards int
	// Seed fixes the deterministic best-of-two-choices admission hash.
	Seed int64
}

func (o *ShardedOptions) routerConfig(nodes []Node) shard.Config {
	k := o.Shards
	if k == 0 {
		k = 1
	}
	return shard.Config{
		Nodes:  nodes,
		Shards: k,
		Seed:   o.Seed,
		Now:    time.Now,
	}
}

// sharded lifts per-domain engine options (nil = defaults) into the options
// of a one-domain cluster.
func (o *ClusterOptions) sharded() *ShardedOptions {
	if o == nil {
		return &ShardedOptions{}
	}
	return &ShardedOptions{ClusterOptions: *o}
}

// ClusterEpoch reports one Reallocate or Repair epoch.
type ClusterEpoch struct {
	// Result is the solve outcome; Result.Placement is park-global and
	// aligned with IDs. Solved means every non-empty shard holds a solved
	// placement (a failed shard keeps its previous one); MinYield is the
	// minimum over their yields.
	Result *Result
	// IDs are the live service ids, ascending.
	IDs []int
	// Migrations counts already-placed services that changed node,
	// cross-shard rebalance moves included.
	Migrations int
	// Stats carries the epoch's solver telemetry: solve wall time, the
	// solver-tier work counters and the per-shard breakdown.
	Stats *EpochStats
}

// EpochStats is the observability payload of one epoch: solve wall time,
// aggregated solver-tier counters and the per-shard breakdown (alias of
// internal/obs.EpochStats, the dependency-free observability seam).
type EpochStats = obs.EpochStats

// SolverStats aggregates the epoch's vector-packing work counters: pack
// attempts, successful packs and pruned search steps (alias of
// internal/obs.SolverStats).
type SolverStats = obs.SolverStats

// ShardStat is a point-in-time description of one placement domain.
type ShardStat = shard.Stat

// NewCluster returns an empty one-domain cluster over the given nodes.
func NewCluster(nodes []Node, opts *ClusterOptions) (*Cluster, error) {
	return NewShardedCluster(nodes, opts.sharded())
}

// NewShardedCluster returns an empty cluster over the given node park,
// split into opts.Shards contiguous placement domains.
func NewShardedCluster(nodes []Node, opts *ShardedOptions) (*Cluster, error) {
	if opts == nil {
		opts = &ShardedOptions{}
	}
	r, err := shard.New(opts.routerConfig(nodes))
	if err != nil {
		return nil, err
	}
	c := &Cluster{r: r}
	if err := c.SetThreshold(opts.Threshold); err != nil {
		return nil, err
	}
	return c, nil
}

// Add admits a service whose CPU-need estimate is exact. Admission is the
// engine's best-fit test on rigid requirements against the incrementally
// maintained node loads of the shard the router picks; ok is false when no
// node can host the service, in which case the cluster is unchanged. A
// non-nil error means svc is structurally invalid (wrong dimensionality,
// negative/NaN entries) and nothing was attempted. The owning shard is
// recoverable via Shard, the park-global node via Node.
func (c *Cluster) Add(svc Service) (id int, ok bool, err error) {
	return c.AddWithEstimate(svc, svc)
}

// AddWithEstimate admits a service whose scheduler-visible needs (estSvc)
// differ from its true needs (trueSvc); the two normally share
// requirements (only needs are subject to the §6 estimate-error model).
func (c *Cluster) AddWithEstimate(trueSvc, estSvc Service) (id int, ok bool, err error) {
	if err := validateServiceVecs(c.r.Dim(), "true", trueSvc); err != nil {
		return 0, false, err
	}
	if err := validateServiceVecs(c.r.Dim(), "estimated", estSvc); err != nil {
		return 0, false, err
	}
	id, _, _, ok = c.r.Add(trueSvc, estSvc)
	return id, ok, nil
}

// Remove departs a live service in O(1). It reports whether id was live.
func (c *Cluster) Remove(id int) bool { return c.r.Remove(id) }

// UpdateNeeds replaces the fluid needs (true and estimated) of a live
// service; rigid requirements cannot change in place. It returns an error
// for malformed vectors or an unknown id.
func (c *Cluster) UpdateNeeds(id int, trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg Vec) error {
	d := c.r.Dim()
	for _, vv := range []struct {
		name string
		v    Vec
	}{
		{"true elementary need", trueNeedElem},
		{"true aggregate need", trueNeedAgg},
		{"estimated elementary need", estNeedElem},
		{"estimated aggregate need", estNeedAgg},
	} {
		if err := validateVec(d, vv.name, vv.v); err != nil {
			return err
		}
	}
	if !c.r.UpdateNeeds(id, trueNeedElem, trueNeedAgg, estNeedElem, estNeedAgg) {
		return fmt.Errorf("vmalloc: %w with id %d", ErrUnknownService, id)
	}
	return nil
}

// SetThreshold sets the §6.2 mitigation threshold applied (on every shard)
// to estimated CPU needs when views are built for the next epoch (0
// disables). Negative or non-finite values are rejected — a poisoned
// threshold would journal and snapshot cleanly here but fail state
// validation at recovery, bricking the durable tier's directory.
func (c *Cluster) SetThreshold(th float64) error {
	if th < 0 || math.IsNaN(th) || math.IsInf(th, 0) {
		return fmt.Errorf("vmalloc: threshold %g invalid (want a finite value >= 0)", th)
	}
	c.r.SetThreshold(th)
	return nil
}

// Len returns the number of live services across all shards.
func (c *Cluster) Len() int { return c.r.Len() }

// Shards returns the placement-domain count K.
func (c *Cluster) Shards() int { return c.r.Shards() }

// Node returns the park-global node currently hosting id, or false when id
// is not live.
func (c *Cluster) Node(id int) (int, bool) { return c.r.Node(id) }

// Shard returns the placement domain owning id.
func (c *Cluster) Shard(id int) (int, bool) { return c.r.Shard(id) }

// NodeRange returns the park-global [lo, hi) node interval of shard s.
func (c *Cluster) NodeRange(s int) (lo, hi int) { return c.r.NodeRange(s) }

// Reallocate runs one full reallocation epoch with the configured placer
// over the estimated view of every shard concurrently and merges the
// outcome; when the bottleneck shard's yield trails the median by more than
// the configured gap, a rebalance pass migrates services out of it and
// re-solves the affected shards. A shard whose solve fails keeps its
// previous placement.
func (c *Cluster) Reallocate() *ClusterEpoch { return c.ReallocateCtx(context.Background()) }

// ReallocateCtx is Reallocate under a tracing context: when ctx carries an
// obs span the epoch runs under an "epoch" child span with one
// "shard_epoch" child per placement domain. The placement trajectory is
// identical to Reallocate.
func (c *Cluster) ReallocateCtx(ctx context.Context) *ClusterEpoch {
	return epoch(ctx, c.r.ReallocateCtx)
}

// Repair runs one migration-bounded incremental epoch per shard:
// still-feasible services stay put, new or displaced services are re-placed
// by best fit, and at most budget previously-placed services move per shard
// (negative = unlimited), followed by budget-aware local search. Repair
// skips the rebalance pass.
func (c *Cluster) Repair(budget int) *ClusterEpoch {
	return c.RepairCtx(context.Background(), budget)
}

// RepairCtx is Repair under a tracing context; see ReallocateCtx.
func (c *Cluster) RepairCtx(ctx context.Context, budget int) *ClusterEpoch {
	return epoch(ctx, func(ctx context.Context) *shard.Epoch { return c.r.RepairCtx(ctx, budget) })
}

func epoch(ctx context.Context, run func(context.Context) *shard.Epoch) *ClusterEpoch {
	sp := obs.SpanFromContext(ctx).StartChild("epoch")
	ep := run(obs.ContextWithSpan(ctx, sp))
	sp.SetInt("services", int64(len(ep.IDs)))
	sp.SetInt("migrations", int64(ep.Migrations))
	sp.End()
	return &ClusterEpoch{
		Result:     ep.Result,
		IDs:        append([]int(nil), ep.IDs...),
		Migrations: ep.Migrations,
		Stats:      ep.Stats,
	}
}

// Snapshot returns a detached park-global copy of the cluster: the true
// problem view, the current placement and the live service ids (ascending),
// aligned index by index.
func (c *Cluster) Snapshot() (*Problem, Placement, []int) { return c.r.Snapshot() }

// MinYield evaluates the achieved minimum yield of the current placement
// when the true needs run against the estimated (thresholded) view under the
// given scheduling policy — the §6 error model — minimized over non-empty
// shards. Returns 1 for an empty cluster.
func (c *Cluster) MinYield(policy SchedPolicy) float64 { return c.r.MinYield(policy) }

// ShardStats returns per-shard statistics: size, headroom, last epoch
// yield, epoch counters and cross-shard migration counts.
func (c *Cluster) ShardStats() []ShardStat { return c.r.Stats() }

// validateVec mirrors the structural checks Problem.Validate applies to one
// vector, so malformed input surfaces as an error at the public boundary
// instead of a panic (or silent NaN poisoning of the incremental loads) deep
// inside the engine.
func validateVec(d int, name string, v Vec) error {
	if v.Dim() != d {
		return fmt.Errorf("vmalloc: %s has %d dimensions, want %d", name, v.Dim(), d)
	}
	for dd, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("vmalloc: %s has invalid value %g in dimension %d", name, x, dd)
		}
	}
	return nil
}

// validateServiceVecs applies validateVec to all four descriptor vectors of
// a service. A vector is checked unnamed first and its name formatted only
// once it has failed, so validating a good service allocates nothing.
func validateServiceVecs(d int, kind string, svc Service) error {
	for i, v := range [...]Vec{svc.ReqElem, svc.ReqAgg, svc.NeedElem, svc.NeedAgg} {
		if validateVec(d, "", v) != nil {
			name := [...]string{"elementary requirement", "aggregate requirement", "elementary need", "aggregate need"}[i]
			return validateVec(d, kind+" service "+name, v)
		}
	}
	return nil
}
