// Package server is the durable tier of the allocation system: a Store that
// couples a vmalloc.Cluster to write-ahead journals — one per placement
// domain — and an HTTP/JSON handler (vmallocd) that serves the full Cluster
// API over it.
//
// Durability follows the log-the-decision design of internal/journal: every
// applied mutation is captured through the cluster's event-hook seam,
// encoded as a journal record and group-committed to the owning shard's WAL.
// The commit pipeline serializes *application* (one mutation at a time holds
// the state lock) but overlaps *durability*: the lock is released before
// waiting for the fsync, so concurrent requests batch into a single disk
// flush per shard. Reads are served from an immutable published snapshot
// that is re-derived lazily after mutations, so they never wait on the
// solver or the disk.
//
// Recovery is snapshot + tail replay, shard by shard: the newest snapshot
// that validates restores each shard engine, then the journal tail re-applies
// recorded decisions through vmalloc.ShardedRestore (no solver re-runs),
// which reconstructs the pre-crash state bit for bit. A single placement
// domain is simply the one-shard case of all of this.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc"
	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Cluster sets the engine's initial mitigation threshold. When
	// recovering, the threshold inside the recovered state wins over
	// Cluster.Threshold.
	Cluster vmalloc.ClusterOptions
	// SegmentBytes, Fsync, ChainInterval and FS pass through to the
	// journal, which keeps its default two snapshots. FS (nil for the real
	// filesystem) is the fault-injection seam: crash-safety tests run the
	// whole store over a faultinject.Injector.
	SegmentBytes  int64
	Fsync         journal.FsyncMode
	ChainInterval int
	FS            faultfs.FS
	// SnapshotEvery writes a state snapshot (and compacts the log) after
	// this many journaled records; 0 selects 4096, negative disables
	// automatic snapshots.
	SnapshotEvery int
	// InitialState bootstraps a fresh one-shard directory from a saved
	// state file instead of an empty cluster (ignored when the directory
	// already holds a journal). A merged state is shard 0's state only when
	// there is one shard, so it is rejected with Shards > 1.
	InitialState *vmalloc.ClusterState
	// Obs receives the store's operational telemetry: commit-pipeline spans
	// attach to traces carried by request contexts, and every epoch pushes
	// a record (phase timing plus solver counters) into Obs.Epochs. nil
	// disables both at zero cost.
	Obs *obs.Observer

	// Shards is the placement-domain count on first boot (0 selects 1;
	// later boots take it from the manifest and only check for
	// conflicts); ShardSeed fixes the admission hash.
	Shards    int
	ShardSeed int64
}

func (o *Options) snapshotEvery() int {
	if o.SnapshotEvery == 0 {
		return 4096
	}
	return o.SnapshotEvery
}

// Stats is a point-in-time counter snapshot of a Store.
type Stats struct {
	Services     int     `json:"services"`
	Threshold    float64 `json:"threshold"`
	LastSeq      uint64  `json:"last_seq"`
	SnapshotSeq  uint64  `json:"snapshot_seq"`
	Records      uint64  `json:"records"`
	Snapshots    uint64  `json:"snapshots"`
	Adds         uint64  `json:"adds"`
	Batches      uint64  `json:"batches"`
	Rejected     uint64  `json:"rejected"`
	Removes      uint64  `json:"removes"`
	NeedUpdates  uint64  `json:"need_updates"`
	Epochs       uint64  `json:"epochs"`
	FailedEpochs uint64  `json:"failed_epochs"`
	Migrations   uint64  `json:"migrations"`
	LastMinYield float64 `json:"last_min_yield"`
	// Boot-time recovery facts.
	Replayed       int `json:"replayed"`
	TruncatedBytes int `json:"truncated_bytes"`
	// Shards is the placement-domain count (>= 1).
	Shards int `json:"shards"`
}

// AddSpec is one service of a bulk admission: the true descriptor and the
// scheduler-visible estimate.
type AddSpec struct {
	True, Est vmalloc.Service
}

// AddOutcome is the per-entry result of AddBatch. Err == nil means the entry
// was admitted and ID/Node are valid; otherwise Err matches ErrRejected (no
// node could host it) or ErrInvalid (structural validation failed) and Node
// is -1.
type AddOutcome struct {
	ID   int
	Node int
	Err  error
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("server: store closed")

// ErrRejected is returned by Add when no node can host the service.
var ErrRejected = errors.New("server: admission rejected: no node can host the service")

// ErrInvalid wraps structural validation failures of client-supplied input
// (malformed vectors, bad thresholds); match with errors.Is to distinguish
// the client's fault from store/journal failures.
var ErrInvalid = errors.New("server: invalid input")

// invalid wraps a cluster validation error so handlers can classify it
// without substring matching.
func invalid(err error) error {
	return fmt.Errorf("%w: %s", ErrInvalid, err)
}

// Store is the durable tier: a vmalloc.Cluster whose K placement domains
// (K=1 by default) each journal to their own WAL directory (dir/shard-0 …
// dir/shard-K-1), behind one commit pipeline. All mutations are durable when
// the call returns; reads come from published snapshots. Mutations apply
// under a single lock (preserving the router's deterministic trajectory);
// each mutation's records gather in one journal.Batch per shard and commit,
// still under the lock, as one contiguous record group per touched shard
// (a MOVE_IN commits its shard's group early; see below).
// The fsync waits happen after unlock, so concurrent requests group-commit
// per shard; an epoch's records fan out to every shard's journal and the
// call returns only when all of them are durable.
//
// Cross-WAL atomicity for rebalance moves follows a fixed discipline: the
// destination's MOVE_IN record is committed at once and fsynced before the
// source's MOVE_OUT is even added to its shard's group, and checkpoints
// barrier every journal before writing any snapshot. A crash can therefore
// leave a moving service recovered in two shards — never in zero — and
// recovery resolves the duplicate by move generation (see
// vmalloc.ShardedRestore.Finish). Safe for concurrent use.
type Store struct {
	opts     Options
	manifest *ShardManifest // immutable after Open

	mu           sync.Mutex
	cluster      *vmalloc.Cluster
	js           Journals
	batches      []*journal.Batch        // per-shard record groups of the current mutation
	moveIn       map[int]*journal.Ticket // pending MOVE_IN tickets by service id
	hookErr      error                   // first journaling failure, surfaced at finish
	enqueued     int                     // records journaled by the current mutation
	recordsSince int
	closed       bool
	stats        Stats

	// RecoveryWarnings describes cross-WAL repairs performed at boot
	// (dropped duplicate copies of moved services, threshold
	// realignment). Empty after a clean shutdown.
	RecoveryWarnings []string

	version   atomic.Uint64
	published atomic.Pointer[publishedState]
}

// Open recovers (or bootstraps) the journaled cluster in dir. On first boot
// nodes (or, for one shard, opts.InitialState) defines the park and
// opts.Shards the partition, and a manifest plus per-shard bootstrap
// snapshots are written; on every later boot the manifest defines both and
// nodes is ignored (opts.Shards, when non-zero, must agree with the
// manifest). A legacy single-WAL directory is migrated in place into the
// one-shard layout first. After a replay longer than the snapshot interval a
// fresh checkpoint compacts the logs right away.
func Open(dir string, nodes []vmalloc.Node, opts *Options) (*Store, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := prepareDir(dir, nodes, opts); err != nil {
		return nil, err
	}
	rep, err := OpenShardedReplay(dir, opts)
	if err != nil {
		return nil, err
	}
	cluster, warnings, err := rep.Restore.Finish()
	if err != nil {
		rep.Journals.Close()
		return nil, err
	}
	s := &Store{
		opts:             *opts,
		manifest:         rep.Manifest,
		cluster:          cluster,
		js:               rep.Journals,
		batches:          make([]*journal.Batch, len(rep.Journals)),
		moveIn:           make(map[int]*journal.Ticket),
		RecoveryWarnings: warnings,
	}
	for i, j := range s.js {
		s.batches[i] = j.NewBatch()
	}
	s.stats.Replayed = rep.Replayed
	s.stats.TruncatedBytes = rep.TruncatedBytes
	s.stats.SnapshotSeq = rep.SnapshotSeq
	s.stats.Threshold = cluster.State().Threshold
	cluster.SetHook(s.onEvent)

	// A fresh shard must hold a snapshot before its first record: the
	// snapshot carries the platform, which records do not. A long replay is
	// compacted away immediately so the next boot is fast.
	if rep.Fresh || (opts.snapshotEvery() > 0 && rep.Replayed >= opts.snapshotEvery()) {
		if _, err := s.Checkpoint(); err != nil {
			s.js.Close()
			return nil, err
		}
	}
	return s, nil
}

// OpenSharded is Open. bench/ is its only caller; it goes once bench/ calls
// Open.
func OpenSharded(dir string, nodes []vmalloc.Node, opts *Options) (*Store, error) {
	return Open(dir, nodes, opts)
}

type publishedState struct {
	version uint64
	state   *vmalloc.ClusterState
	data    []byte
}

// DecodeState parses and validates a stable-JSON cluster state.
func DecodeState(data []byte) (*vmalloc.ClusterState, error) {
	var st vmalloc.ClusterState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("server: decoding state: %w", err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// EncodeState renders a cluster state in the stable JSON form shared by
// snapshots, the HTTP API and the vmalloc CLI.
func EncodeState(st *vmalloc.ClusterState) ([]byte, error) {
	return json.Marshal(st)
}

// onEvent journals one applied shard mutation into its shard's record group.
// It runs while the mutation holds s.mu, so per-journal order equals
// application order. For a rebalance move the MOVE_OUT waits for its MOVE_IN
// to be durable before joining its group — the invariant recovery's
// duplicate resolution rests on.
func (s *Store) onEvent(ev *vmalloc.ClusterEvent) {
	rec := &journal.Record{}
	switch ev.Op {
	case vmalloc.ClusterOpAdd:
		rec.Op, rec.ID, rec.Node = journal.OpAdd, ev.ID, ev.Node
		rec.TrueSvc, rec.EstSvc = *ev.TrueSvc, *ev.EstSvc
	case vmalloc.ClusterOpMoveIn:
		rec.Op, rec.ID, rec.Node, rec.Gen = journal.OpMoveIn, ev.ID, ev.Node, ev.Gen
		rec.TrueSvc, rec.EstSvc = *ev.TrueSvc, *ev.EstSvc
	case vmalloc.ClusterOpRemove:
		rec.Op, rec.ID = journal.OpRemove, ev.ID
	case vmalloc.ClusterOpMoveOut:
		rec.Op, rec.ID, rec.Gen = journal.OpMoveOut, ev.ID, ev.Gen
		if t := s.moveIn[ev.ID]; t != nil {
			delete(s.moveIn, ev.ID)
			if err := t.Wait(); err != nil && s.hookErr == nil {
				s.hookErr = err
			}
		}
	case vmalloc.ClusterOpUpdateNeeds:
		rec.Op, rec.ID = journal.OpUpdateNeeds, ev.ID
		rec.Needs = ev.Needs
	case vmalloc.ClusterOpSetThreshold:
		rec.Op, rec.Threshold = journal.OpSetThreshold, ev.Threshold
	case vmalloc.ClusterOpEpoch:
		rec.Op, rec.Repair, rec.Budget = journal.OpEpoch, ev.Repair, ev.Budget
		rec.IDs, rec.Placement = ev.IDs, ev.Placement
	default:
		return
	}
	// Batch.Add encodes synchronously, so aliasing engine buffers is safe.
	b := s.batches[ev.Shard]
	if err := b.Add(rec); err != nil {
		if s.hookErr == nil {
			s.hookErr = err
		}
		return
	}
	s.enqueued++
	if rec.Op == journal.OpMoveIn {
		// The MOVE_IN's group commits now so the paired MOVE_OUT can wait on
		// it. Tickets are single-use: that MOVE_OUT (or finish, if the pair
		// never completes) waits this one.
		s.moveIn[ev.ID] = b.Commit()
	}
}

// begin/finish bracket one mutation: begin takes the state lock (refusing on
// a closed store or a failed journal) and opens the "apply" span, which
// covers lock wait plus in-memory application and must be handed to finish.
// With no span in ctx (or tracing disabled) the span is free.
func (s *Store) begin(ctx context.Context) (obs.Span, error) {
	apply := obs.SpanFromContext(ctx).StartChild("apply")
	s.mu.Lock()
	err := s.journalErr()
	if s.closed {
		err = ErrClosed
	}
	if err != nil {
		s.mu.Unlock()
		apply.End()
		return obs.Span{}, err
	}
	s.hookErr = nil
	s.enqueued = 0
	return apply, nil
}

// journalErr reports the first shard journal that has failed (sticky).
// Called with s.mu held.
func (s *Store) journalErr() error {
	for i, j := range s.js {
		if err := j.Err(); err != nil {
			return fmt.Errorf("server: shard %d journal failed: %w", i, err)
		}
	}
	return nil
}

// finish is called with s.mu held: it commits every shard's non-empty record
// group, releases the lock, ends the apply span there, waits for the
// mutation's journal tickets across shards under a sibling "fsync_wait" span
// — after the unlock, so concurrent mutations group-commit — and triggers an
// automatic checkpoint when due. Returns the time spent waiting on
// durability.
func (s *Store) finish(ctx context.Context, apply obs.Span) (waitNs int64, err error) {
	var tickets []*journal.Ticket
	for _, b := range s.batches {
		if b.Len() > 0 {
			tickets = append(tickets, b.Commit())
		}
	}
	hookErr := s.hookErr
	// Every MOVE_IN is normally consumed by its paired MOVE_OUT wait; any
	// leftovers still owe a durability wait.
	for id, t := range s.moveIn {
		tickets = append(tickets, t)
		delete(s.moveIn, id)
	}
	checkpoint := false
	n := s.enqueued
	if n > 0 {
		s.version.Add(1)
		s.stats.Records += uint64(n)
		s.recordsSince += n
		if every := s.opts.snapshotEvery(); every > 0 && s.recordsSince >= every {
			s.recordsSince = 0
			checkpoint = true
		}
	}
	s.mu.Unlock()
	apply.SetInt("records", int64(n))
	apply.End()
	if len(tickets) > 0 {
		wait := obs.SpanFromContext(ctx).StartChild("fsync_wait")
		wait.SetInt("records", int64(n))
		start := time.Now()
		for _, t := range tickets {
			if werr := t.Wait(); werr != nil {
				wait.End()
				return time.Since(start).Nanoseconds(), fmt.Errorf("server: journal append: %w", werr)
			}
		}
		waitNs = time.Since(start).Nanoseconds()
		wait.End()
	}
	if hookErr != nil {
		return waitNs, fmt.Errorf("server: journal append: %w", hookErr)
	}
	if checkpoint {
		if _, err := s.Checkpoint(); err != nil {
			return waitNs, err
		}
	}
	return waitNs, nil
}

// Add admits a service (estimate equal to the true descriptor).
func (s *Store) Add(svc vmalloc.Service) (id, node int, err error) {
	return s.AddWithEstimate(svc, svc)
}

// AddWithEstimate admits a service through the deterministic two-choice
// shard router; the admission decision is durable on return. It is a batch
// of one: the single-service path and POST /v1/services:batch share one
// admission and commit code path (AddBatch).
func (s *Store) AddWithEstimate(trueSvc, estSvc vmalloc.Service) (id, node int, err error) {
	return addOne(context.Background(), s, trueSvc, estSvc)
}

// AddBatch admits specs in order through the deterministic two-choice shard
// router as one mutation: a loop of single admissions, each seeing the
// capacity the previous one left, so the trajectory is that of len(specs)
// AddWithEstimate calls. Like every mutation, the store commits each shard's
// records as one group sharing a single group-commit fsync, and the call
// returns when every touched shard is durable. Outcomes are per-entry — an
// invalid or rejected entry never aborts the rest of the batch; the error
// return is reserved for whole-batch failures (closed store, journal
// failure). ctx carries the request's trace (see begin and finish).
func (s *Store) AddBatch(ctx context.Context, specs []AddSpec) ([]AddOutcome, error) {
	apply, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]AddOutcome, len(specs))
	admitted := 0
	for i := range specs {
		id, ok, err := s.cluster.AddWithEstimate(specs[i].True, specs[i].Est)
		switch {
		case err != nil:
			out[i] = AddOutcome{Node: -1, Err: invalid(err)}
		case !ok:
			out[i] = AddOutcome{Node: -1, Err: ErrRejected}
			s.stats.Rejected++
		default:
			node, _ := s.cluster.Node(id)
			out[i] = AddOutcome{ID: id, Node: node}
			s.stats.Adds++
			admitted++
		}
	}
	if admitted > 0 {
		s.stats.Batches++
	}
	_, err = s.finish(ctx, apply)
	return out, err
}

// Remove departs a service; reports whether the id was live.
func (s *Store) Remove(id int) (bool, error) {
	return s.RemoveCtx(context.Background(), id)
}

// RemoveCtx is Remove under a tracing context.
func (s *Store) RemoveCtx(ctx context.Context, id int) (bool, error) {
	apply, err := s.begin(ctx)
	if err != nil {
		return false, err
	}
	ok := s.cluster.Remove(id)
	if ok {
		s.stats.Removes++
	}
	_, err = s.finish(ctx, apply)
	return ok, err
}

// UpdateNeeds replaces a live service's fluid needs.
func (s *Store) UpdateNeeds(id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	return s.UpdateNeedsCtx(context.Background(), id, trueElem, trueAgg, estElem, estAgg)
}

// UpdateNeedsCtx is UpdateNeeds under a tracing context.
func (s *Store) UpdateNeedsCtx(ctx context.Context, id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error {
	apply, err := s.begin(ctx)
	if err != nil {
		return err
	}
	err = s.cluster.UpdateNeeds(id, trueElem, trueAgg, estElem, estAgg)
	if err != nil && !errors.Is(err, vmalloc.ErrUnknownService) {
		err = invalid(err)
	}
	if err == nil {
		s.stats.NeedUpdates++
	}
	if _, ferr := s.finish(ctx, apply); err == nil {
		err = ferr
	}
	return err
}

// SetThreshold changes the mitigation threshold on every shard.
func (s *Store) SetThreshold(ctx context.Context, th float64) error {
	apply, err := s.begin(ctx)
	if err != nil {
		return err
	}
	err = s.cluster.SetThreshold(th)
	if err != nil {
		err = invalid(err)
	} else {
		s.stats.Threshold = th
	}
	if _, ferr := s.finish(ctx, apply); err == nil {
		err = ferr
	}
	return err
}

// Reallocate runs one scatter-gather reallocation epoch (with cross-shard
// rebalancing); the applied placements are durable in every shard's WAL
// when the call returns.
func (s *Store) Reallocate() (*vmalloc.ClusterEpoch, error) {
	return s.ReallocateCtx(context.Background())
}

// ReallocateCtx is Reallocate under a tracing context: the scatter-gather
// solve runs under an "epoch" span with one "shard_epoch" child per
// placement domain, and the epoch's phase timing plus per-shard solver
// counters are retained in the observer's epoch ring.
func (s *Store) ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error) {
	return s.epochCtx(ctx, false, 0, func(ctx context.Context, c *vmalloc.Cluster) *vmalloc.ClusterEpoch {
		return c.ReallocateCtx(ctx)
	})
}

// Repair runs one migration-bounded repair epoch per shard.
func (s *Store) Repair(budget int) (*vmalloc.ClusterEpoch, error) {
	return s.RepairCtx(context.Background(), budget)
}

// RepairCtx is Repair under a tracing context.
func (s *Store) RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error) {
	return s.epochCtx(ctx, true, budget, func(ctx context.Context, c *vmalloc.Cluster) *vmalloc.ClusterEpoch {
		return c.RepairCtx(ctx, budget)
	})
}

func (s *Store) epochCtx(ctx context.Context, repair bool, budget int, run func(context.Context, *vmalloc.Cluster) *vmalloc.ClusterEpoch) (*vmalloc.ClusterEpoch, error) {
	start := time.Now()
	apply, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	ce := run(ctx, s.cluster)
	s.stats.Epochs++
	if ce.Result.Solved {
		s.stats.Migrations += uint64(ce.Migrations)
		s.stats.LastMinYield = ce.Result.MinYield
	} else {
		s.stats.FailedEpochs++
	}
	waitNs, ferr := s.finish(ctx, apply)
	recordEpoch(s.opts.Obs, ctx, start, repair, budget, ce, waitNs)
	return ce, ferr
}

// MinYield evaluates the current placement under the §6 error model,
// minimized over non-empty shards.
func (s *Store) MinYield(policy vmalloc.SchedPolicy) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.cluster.MinYield(policy), nil
}

// ShardStats returns per-shard statistics.
func (s *Store) ShardStats() ([]vmalloc.ShardStat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.cluster.ShardStats(), nil
}

// State returns the merged park-global cluster state and its stable JSON
// encoding, served from the published snapshot. The returned state and
// bytes are shared — callers must not modify them.
func (s *Store) State() (*vmalloc.ClusterState, []byte, error) {
	v := s.version.Load()
	if p := s.published.Load(); p != nil && p.version == v {
		return p.state, p.data, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	v = s.version.Load()
	st := s.cluster.State()
	s.mu.Unlock()
	data, err := EncodeState(st)
	if err != nil {
		return nil, nil, err
	}
	s.published.Store(&publishedState{version: v, state: st, data: data})
	return st, data, nil
}

// Checkpoint snapshots every shard and compacts the WALs behind the
// snapshots. Before any snapshot is written, a barrier on every journal
// waits out all previously enqueued records — so no shard snapshot can ever
// include a rebalanced arrival whose matching departure is not yet durable
// in the source shard's WAL. Returns the highest covered sequence number.
func (s *Store) Checkpoint() (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	// Under the lock only what must be mutually consistent is taken — each
	// shard's state copy, chain head and barrier; encoding and disk writes
	// happen after it is released so writers are not held up by them.
	type shardSnap struct {
		at journal.ChainPoint
		st *vmalloc.ClusterState
	}
	snaps := make([]shardSnap, len(s.js))
	barriers := make([]*journal.Ticket, len(s.js))
	for i, j := range s.js {
		barriers[i] = j.Barrier()
		snaps[i] = shardSnap{at: j.ChainHead(), st: s.cluster.ShardState(i)}
	}
	s.mu.Unlock()
	for _, b := range barriers {
		if err := b.Wait(); err != nil {
			return 0, fmt.Errorf("server: checkpoint barrier: %w", err)
		}
	}
	// Every shard encodes and writes its snapshot at once.
	err := eachShard(len(s.js), func(i int) error {
		data, err := EncodeState(snaps[i].st)
		if err == nil {
			err = s.js[i].WriteSnapshot(snaps[i].at, data)
		}
		if err != nil {
			return fmt.Errorf("server: shard %d snapshot: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var maxSeq uint64
	for _, sn := range snaps {
		maxSeq = max(maxSeq, sn.at.Seq)
	}
	s.mu.Lock()
	s.stats.Snapshots++
	if maxSeq > s.stats.SnapshotSeq {
		s.stats.SnapshotSeq = maxSeq
	}
	s.mu.Unlock()
	return maxSeq, nil
}

// Stats returns a point-in-time counter snapshot (LastSeq is the sum over
// shard journals, so it is monotone across any single-shard or epoch-wide
// mutation).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Services = s.cluster.Len()
	for _, j := range s.js {
		st.LastSeq += j.LastSeq()
	}
	st.Shards = len(s.js)
	return st
}

// JournalIOStats returns the cumulative write-path counters summed over the
// per-shard WALs.
func (s *Store) JournalIOStats() journal.IOStats { return s.js.IOStats() }

// markClosed flips the store to closed and invalidates the read cache (the
// version bump also defeats a concurrently re-published one). It reports
// false when the store was closed already.
func (s *Store) markClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.published.Store(nil)
	s.version.Add(1)
	return true
}

// Kill abandons the store without the Close-time checkpoint, leaving every
// shard directory exactly as a crash would: the durable records, no fresh
// snapshot. Recovery tooling and crash tests use it to exercise the replay
// path; production code wants Close.
func (s *Store) Kill() {
	if s.markClosed() {
		s.js.Close()
	}
}

// Close checkpoints every shard and shuts the journals down. Further
// operations fail with ErrClosed.
func (s *Store) Close() error {
	_, cerr := s.Checkpoint()
	if !s.markClosed() {
		return nil
	}
	err := s.js.Close()
	if cerr != nil {
		// A failed journal cannot checkpoint; the files are released all the
		// same and the checkpoint failure is what the caller hears.
		return cerr
	}
	return err
}

// recordEpoch pushes one finished epoch into the observer's retained ring,
// linking it to the trace the request ran under (if any).
func recordEpoch(o *obs.Observer, ctx context.Context, start time.Time, repair bool, budget int, ce *vmalloc.ClusterEpoch, waitNs int64) {
	ring := o.EpochsOf()
	if ring == nil {
		return
	}
	rec := obs.EpochRecord{
		TraceID:     obs.SpanFromContext(ctx).Trace().ID(),
		Start:       start,
		Repair:      repair,
		Budget:      budget,
		Solved:      ce.Result.Solved,
		MinYield:    ce.Result.MinYield,
		Services:    len(ce.IDs),
		Migrations:  ce.Migrations,
		TotalNs:     time.Since(start).Nanoseconds(),
		FsyncWaitNs: waitNs,
	}
	if st := ce.Stats; st != nil {
		rec.SolveNs = st.SolveNs
		rec.Solver = st.Solver
		rec.Shards = st.Shards
	}
	ring.Add(rec)
}
