package replica

import (
	"context"
	"sync"
	"sync/atomic"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
)

// Switch is the server.API of a follower daemon: one stable value the HTTP
// server holds for the life of the process. Until promotion it refuses every
// mutation itself, with server.ErrReadOnly (503 + Retry-After at the HTTP
// layer), and forwards reads to the follower; Promote swaps in the writable
// store that replaces the follower, and from then on everything forwards to
// that store. The swap is one atomic pointer store: in-flight reads finish
// against the old follower, new requests land on the writable store, and no
// request ever observes a half-switched server.
type Switch struct {
	cur atomic.Pointer[backend]

	mu       sync.Mutex // serializes Promote
	follower *Follower
}

// reads is the read surface of server.API, which the follower and the
// promoted store both serve.
type reads interface {
	MinYield(policy vmalloc.SchedPolicy) (float64, error)
	State() (*vmalloc.ClusterState, []byte, error)
	Stats() server.Stats
	ShardStats() ([]vmalloc.ShardStat, error)
	JournalIOStats() journal.IOStats
	Ready() error
	ReplicaManifest() (*server.ShardManifest, error)
	ReplicaCheckpoint(shard int) (*journal.Checkpoint, error)
	ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error)
	ChainStatus() ([]server.ShardChain, error)
}

// backend is the current serving state: the follower's reads until
// promotion, then the promoted store for everything.
type backend struct {
	reads
	st *server.Store // nil until promotion
}

// NewSwitch wraps a running follower.
func NewSwitch(f *Follower) *Switch {
	s := &Switch{follower: f}
	s.cur.Store(&backend{reads: f})
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
	s.cur.Store(&backend{reads: st, st: st})
	return nil
}

// Close shuts down whichever backend is serving.
func (s *Switch) Close() error {
	if st := s.cur.Load().st; st != nil {
		return st.Close()
	}
	return s.follower.Close()
}

// ReplicationStatus always reports the follower's history — after promotion
// the counters freeze with Promoted set, preserving how this leader came to
// be.
func (s *Switch) ReplicationStatus() *server.ReplicationStatus {
	return s.follower.ReplicationStatus()
}

// store returns the promoted store, or server.ErrReadOnly while the
// follower is still serving. Every mutation goes through it.
func (s *Switch) store() (*server.Store, error) {
	if st := s.cur.Load().st; st != nil {
		return st, nil
	}
	return nil, server.ErrReadOnly
}

// --- mutations ---

func (s *Switch) AddBatch(ctx context.Context, specs []server.AddSpec) ([]server.AddOutcome, error) {
	st, err := s.store()
	if err != nil {
		return nil, err
	}
	return st.AddBatch(ctx, specs)
}

func (s *Switch) RemoveCtx(ctx context.Context, id int) (bool, error) {
	st, err := s.store()
	if err != nil {
		return false, err
	}
	return st.RemoveCtx(ctx, id)
}

func (s *Switch) UpdateNeedsCtx(ctx context.Context, id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	st, err := s.store()
	if err != nil {
		return err
	}
	return st.UpdateNeedsCtx(ctx, id, trueElem, trueAgg, estElem, estAgg)
}

func (s *Switch) SetThreshold(ctx context.Context, th float64) error {
	st, err := s.store()
	if err != nil {
		return err
	}
	return st.SetThreshold(ctx, th)
}

func (s *Switch) ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error) {
	st, err := s.store()
	if err != nil {
		return nil, err
	}
	return st.ReallocateCtx(ctx)
}

func (s *Switch) RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error) {
	st, err := s.store()
	if err != nil {
		return nil, err
	}
	return st.RepairCtx(ctx, budget)
}

func (s *Switch) Checkpoint() (uint64, error) {
	st, err := s.store()
	if err != nil {
		return 0, err
	}
	return st.Checkpoint()
}

func (s *Switch) AddWithEstimate(trueSvc, estSvc vmalloc.Service) (int, int, error) {
	st, err := s.store()
	if err != nil {
		return 0, -1, err
	}
	return st.AddWithEstimate(trueSvc, estSvc)
}

func (s *Switch) Remove(id int) (bool, error) { return s.RemoveCtx(context.Background(), id) }

func (s *Switch) UpdateNeeds(id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	return s.UpdateNeedsCtx(context.Background(), id, trueElem, trueAgg, estElem, estAgg)
}

func (s *Switch) Reallocate() (*vmalloc.ClusterEpoch, error) {
	return s.ReallocateCtx(context.Background())
}

func (s *Switch) Repair(budget int) (*vmalloc.ClusterEpoch, error) {
	return s.RepairCtx(context.Background(), budget)
}

// --- reads ---

func (s *Switch) MinYield(policy vmalloc.SchedPolicy) (float64, error) {
	return s.cur.Load().MinYield(policy)
}

func (s *Switch) State() (*vmalloc.ClusterState, []byte, error) { return s.cur.Load().State() }

func (s *Switch) Stats() server.Stats { return s.cur.Load().Stats() }

func (s *Switch) ShardStats() ([]vmalloc.ShardStat, error) { return s.cur.Load().ShardStats() }

func (s *Switch) JournalIOStats() journal.IOStats { return s.cur.Load().JournalIOStats() }

func (s *Switch) Ready() error { return s.cur.Load().Ready() }

func (s *Switch) ReplicaManifest() (*server.ShardManifest, error) {
	return s.cur.Load().ReplicaManifest()
}

func (s *Switch) ReplicaCheckpoint(shard int) (*journal.Checkpoint, error) {
	return s.cur.Load().ReplicaCheckpoint(shard)
}

func (s *Switch) ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error) {
	return s.cur.Load().ReplicaStream(shard, from, maxBytes)
}

func (s *Switch) ChainStatus() ([]server.ShardChain, error) { return s.cur.Load().ChainStatus() }
