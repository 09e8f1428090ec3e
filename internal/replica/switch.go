package replica

import (
	"context"
	"sync"
	"sync/atomic"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
)

// Switch fronts a follower and, after promotion, the writable store that
// replaces it — one stable value the HTTP server holds for the life of the
// process. Every server interface (the core API plus the optional shard,
// journal, replication, promotion and readiness surfaces) delegates to the
// current backend through one atomic pointer, so promotion is a single
// pointer swap: in-flight reads finish against the old follower, new
// requests land on the writable store, and no request ever observes a
// half-switched server.
type Switch struct {
	cur atomic.Pointer[backend]

	mu       sync.Mutex // serializes Promote
	follower *Follower
}

// backend is the current serving state: exactly one of f/st is non-nil.
type backend struct {
	f  *Follower
	st *server.Store
}

func (b *backend) api() server.API {
	if b.st != nil {
		return b.st
	}
	return b.f
}

// NewSwitch wraps a running follower.
func NewSwitch(f *Follower) *Switch {
	s := &Switch{follower: f}
	s.cur.Store(&backend{f: f})
	return s
}

// Promote verifies and promotes the follower, then atomically swaps the
// writable store in. Idempotent: promoting an already-promoted switch is a
// no-op.
func (s *Switch) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Load().st != nil {
		return nil
	}
	st, err := s.follower.Promote(context.Background())
	if err != nil {
		return err
	}
	s.cur.Store(&backend{st: st})
	return nil
}

// Close shuts down whichever backend is serving.
func (s *Switch) Close() error {
	b := s.cur.Load()
	if b.st != nil {
		return b.st.Close()
	}
	return b.f.Close()
}

// --- server.API ---

func (s *Switch) AddWithEstimate(trueSvc, estSvc vmalloc.Service) (int, int, error) {
	return s.cur.Load().api().AddWithEstimate(trueSvc, estSvc)
}

func (s *Switch) AddBatch(specs []server.AddSpec) ([]server.AddOutcome, error) {
	return s.cur.Load().api().AddBatch(specs)
}

func (s *Switch) Remove(id int) (bool, error) { return s.cur.Load().api().Remove(id) }

func (s *Switch) UpdateNeeds(id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	return s.cur.Load().api().UpdateNeeds(id, trueElem, trueAgg, estElem, estAgg)
}

func (s *Switch) SetThreshold(th float64) error { return s.cur.Load().api().SetThreshold(th) }

func (s *Switch) Reallocate() (*vmalloc.ClusterEpoch, error) {
	return s.cur.Load().api().Reallocate()
}

func (s *Switch) Repair(budget int) (*vmalloc.ClusterEpoch, error) {
	return s.cur.Load().api().Repair(budget)
}

func (s *Switch) MinYield(policy vmalloc.SchedPolicy) (float64, error) {
	return s.cur.Load().api().MinYield(policy)
}

func (s *Switch) State() (*vmalloc.ClusterState, []byte, error) {
	return s.cur.Load().api().State()
}

func (s *Switch) Checkpoint() (uint64, error) { return s.cur.Load().api().Checkpoint() }

func (s *Switch) Stats() server.Stats { return s.cur.Load().api().Stats() }

// --- context-carrying mutations ---
//
// The handler traces mutations through these. A follower refuses every
// mutation, so only the promoted store has anything to trace; forwarding
// them keeps its apply/fsync_wait spans and epoch-ring trace ids after a
// failover.

func (s *Switch) AddBatchCtx(ctx context.Context, specs []server.AddSpec) ([]server.AddOutcome, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.AddBatchCtx(ctx, specs)
	}
	return nil, server.ErrReadOnly
}

func (s *Switch) RemoveCtx(ctx context.Context, id int) (bool, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.RemoveCtx(ctx, id)
	}
	return false, server.ErrReadOnly
}

func (s *Switch) UpdateNeedsCtx(ctx context.Context, id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	if b := s.cur.Load(); b.st != nil {
		return b.st.UpdateNeedsCtx(ctx, id, trueElem, trueAgg, estElem, estAgg)
	}
	return server.ErrReadOnly
}

func (s *Switch) SetThresholdCtx(ctx context.Context, th float64) error {
	if b := s.cur.Load(); b.st != nil {
		return b.st.SetThresholdCtx(ctx, th)
	}
	return server.ErrReadOnly
}

func (s *Switch) ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ReallocateCtx(ctx)
	}
	return nil, server.ErrReadOnly
}

func (s *Switch) RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.RepairCtx(ctx, budget)
	}
	return nil, server.ErrReadOnly
}

// --- optional surfaces (shard stats, journal I/O, replication, readiness) ---

func (s *Switch) ShardStats() ([]vmalloc.ShardStat, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ShardStats()
	} else {
		return b.f.ShardStats()
	}
}

func (s *Switch) JournalIOStats() journal.IOStats {
	if b := s.cur.Load(); b.st != nil {
		return b.st.JournalIOStats()
	} else {
		return b.f.JournalIOStats()
	}
}

func (s *Switch) ReplicaManifest() (*server.ShardManifest, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ReplicaManifest()
	} else {
		return b.f.ReplicaManifest()
	}
}

func (s *Switch) ReplicaCheckpoint(shard int) (*journal.Checkpoint, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ReplicaCheckpoint(shard)
	} else {
		return b.f.ReplicaCheckpoint(shard)
	}
}

func (s *Switch) ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ReplicaStream(shard, from, maxBytes)
	} else {
		return b.f.ReplicaStream(shard, from, maxBytes)
	}
}

func (s *Switch) ChainStatus() ([]server.ShardChain, error) {
	if b := s.cur.Load(); b.st != nil {
		return b.st.ChainStatus()
	} else {
		return b.f.ChainStatus()
	}
}

// ReplicationStatus always reports the follower's history — after promotion
// the counters freeze with Promoted set, preserving how this leader came to
// be.
func (s *Switch) ReplicationStatus() *server.ReplicationStatus {
	return s.follower.ReplicationStatus()
}

func (s *Switch) Ready() error {
	if b := s.cur.Load(); b.st != nil {
		return b.st.Ready()
	} else {
		return b.f.Ready()
	}
}
