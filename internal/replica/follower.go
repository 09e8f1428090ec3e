package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader's base URL (required).
	Leader string
	// Dir is the local journal directory. Empty directories bootstrap from
	// the leader's manifest and checkpoints; non-empty ones must hold a
	// matching shard manifest and resume from their local cursors.
	Dir string
	// Poll is the idle pull interval once caught up (default 200ms).
	Poll time.Duration
	// ReadyLag is the per-shard record lag above which Ready() fails
	// (default 4096). Zero means the default; -1 disables the bound.
	ReadyLag int64
	// Server carries the store options used to open the local journals and,
	// at promotion, the writable store (segment size, fsync policy, chain
	// interval, cluster options...).
	Server *server.Options
}

// pullBytes bounds one stream batch; requestTimeout bounds every single
// leader request.
const (
	pullBytes      = 1 << 20
	requestTimeout = 10 * time.Second
)

func (o *Options) poll() time.Duration {
	if o.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return o.Poll
}

func (o *Options) readyLag() int64 {
	if o.ReadyLag == 0 {
		return 4096
	}
	return o.ReadyLag
}

// Follower is the read side of a vmallocd replica, fed by a leader's WAL
// stream. It has no mutations: it serves the store's reads from the
// continuously replayed restore seam and the replication reads from its own
// journals, and Promote flips the directory into a writable Store after
// verifying chain agreement with the leader. A Switch puts it behind the
// HTTP handler and refuses writes until promotion.
//
// Apply order is durable-first: a streamed batch lands in the local WAL
// (fsynced per the configured policy) before it mutates the in-memory
// engines, so the follower never serves state it could lose.
type Follower struct {
	opts   Options
	client *Client

	mu     sync.Mutex // serializes restore applies vs. reads; guards closed/failErr
	rep    *server.ShardedReplay
	closed bool
	fail   error // sticky: first fatal replication fault

	cursors    []atomic.Uint64 // last seq applied durably, per shard
	leaderSeqs []atomic.Uint64 // leader committed seq at last chain poll
	polled     atomic.Bool     // at least one successful chain poll
	promoted   atomic.Bool

	// Per-shard apply telemetry feeding the lag metrics: cumulative applied
	// stream bytes and records (their ratio is the mean record size the
	// bytes-behind estimate uses) and the apply time of the newest record.
	shardBytes   []atomic.Uint64
	shardRecords []atomic.Uint64
	lastApplied  []atomic.Int64 // unix nanos; seeded with the open time

	batches    atomic.Uint64
	records    atomic.Uint64
	retries    atomic.Uint64
	bootstraps atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Open bootstraps (if dir is fresh) and recovers the local replica state,
// then starts the per-shard pull loops. ctx bounds only the bootstrap phase;
// the pull loops run until Close or Promote.
func Open(ctx context.Context, opts Options) (*Follower, error) {
	if opts.Leader == "" {
		return nil, errors.New("replica: no leader URL")
	}
	if opts.Dir == "" {
		return nil, errors.New("replica: no journal directory")
	}
	if opts.Server == nil {
		opts.Server = &server.Options{}
	}
	f := &Follower{opts: opts, client: NewClient(opts.Leader)}

	if err := f.bootstrap(ctx); err != nil {
		return nil, err
	}
	rep, err := server.OpenShardedReplay(opts.Dir, opts.Server)
	if err != nil {
		return nil, err
	}
	f.rep = rep
	n := rep.Manifest.Shards
	f.cursors = make([]atomic.Uint64, n)
	f.leaderSeqs = make([]atomic.Uint64, n)
	f.shardBytes = make([]atomic.Uint64, n)
	f.shardRecords = make([]atomic.Uint64, n)
	f.lastApplied = make([]atomic.Int64, n)
	now := time.Now().UnixNano()
	for i, j := range rep.Journals {
		f.cursors[i].Store(j.LastSeq())
		f.lastApplied[i].Store(now)
	}

	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(n + 1)
	for i := 0; i < n; i++ {
		go f.pullLoop(i)
	}
	go f.chainLoop()
	return f, nil
}

// bootstrap seeds an empty directory from the leader: the shard manifest
// first, then one checkpoint per shard (journal.InstallSnapshot), each with
// capped-backoff retries. A directory that already holds a manifest resumes
// as-is — its shard count must match the leader's.
func (f *Follower) bootstrap(ctx context.Context) error {
	local, err := server.LoadShardManifest(f.opts.Dir)
	if err != nil {
		return err
	}
	m, err := f.retryManifest(ctx)
	if err != nil && local == nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	if local != nil {
		if m != nil && m.Shards != local.Shards {
			return fmt.Errorf("replica: local manifest has %d shards, leader has %d", local.Shards, m.Shards)
		}
		return nil
	}
	if err := server.SaveShardManifest(f.opts.Server.FS, f.opts.Dir, m); err != nil {
		return err
	}
	for i := 0; i < m.Shards; i++ {
		cp, err := f.retryCheckpoint(ctx, i)
		if err != nil {
			return fmt.Errorf("replica: bootstrap shard %d: %w", i, err)
		}
		jopts := journal.Options{
			Dir: server.ShardDir(f.opts.Dir, i),
			FS:  f.opts.Server.FS,
			ValidateSnapshot: func(b []byte) error {
				_, err := server.DecodeState(b)
				return err
			},
		}
		if err := journal.InstallSnapshot(jopts, *cp); err != nil {
			return fmt.Errorf("replica: bootstrap shard %d: %w", i, err)
		}
		f.bootstraps.Add(1)
	}
	return nil
}

func (f *Follower) retryManifest(ctx context.Context) (*server.ShardManifest, error) {
	var last error
	for attempt := 0; ; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		m, err := f.client.Manifest(rctx)
		cancel()
		if err == nil {
			return m, nil
		}
		last = err
		f.retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, last
		case <-time.After(f.client.Backoff(attempt)):
		}
		if attempt >= 6 {
			return nil, last
		}
	}
}

func (f *Follower) retryCheckpoint(ctx context.Context, shard int) (*journal.Checkpoint, error) {
	var last error
	for attempt := 0; ; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		cp, err := f.client.Checkpoint(rctx, shard)
		cancel()
		if err == nil {
			return cp, nil
		}
		last = err
		f.retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, last
		case <-time.After(f.client.Backoff(attempt)):
		}
		if attempt >= 6 {
			return nil, last
		}
	}
}

// pullLoop tails one shard: pull a batch, append it durably, apply it to the
// engines, repeat. Transient failures back off with jitter; a compacted
// cursor or a local journal fault is fatal and sticks (Ready then fails, and
// the operator re-seeds per docs/operations.md).
func (f *Follower) pullLoop(shard int) {
	defer f.wg.Done()
	attempt := 0
	for {
		if f.ctx.Err() != nil {
			return
		}
		applied, err := f.pullOnce(shard)
		switch {
		case err == nil && applied:
			attempt = 0
			continue // drain: more may be pending
		case err == nil:
			attempt = 0
			if !sleep(f.ctx, f.opts.poll()) {
				return
			}
		case errors.Is(err, errFatal):
			return // already stuck in f.fail
		case Transient(err):
			f.retries.Add(1)
			if !sleep(f.ctx, f.client.Backoff(attempt)) {
				return
			}
			attempt++
		default: // ErrCompacted
			f.setFailed(fmt.Errorf(
				"replica: shard %d cursor %d compacted away at leader; wipe %s and restart to re-bootstrap",
				shard, f.cursors[shard].Load(), f.opts.Dir))
			return
		}
	}
}

// errFatal marks local faults already recorded in f.fail.
var errFatal = errors.New("replica: fatal")

// pullOnce pulls and applies at most one batch. applied reports whether any
// records landed (false when caught up).
func (f *Follower) pullOnce(shard int) (applied bool, err error) {
	rctx, cancel := context.WithTimeout(f.ctx, requestTimeout)
	defer cancel()
	b, err := f.client.Stream(rctx, shard, f.cursors[shard].Load(), pullBytes)
	if err != nil {
		return false, err
	}
	if b == nil {
		return false, nil
	}
	// Durable first: the frames land verbatim in the local WAL and are
	// fsynced before any of them becomes visible to readers.
	last, err := f.rep.Journals[shard].AppendFrames(b.Data)
	if err != nil {
		f.setFailed(fmt.Errorf("replica: shard %d append: %w", shard, err))
		return false, errFatal
	}
	f.mu.Lock()
	if !f.closed {
		err = journal.DecodeFrames(b.Data, func(r *journal.Record) error {
			return server.ApplyShardRecord(f.rep.Restore, shard, r)
		})
	}
	f.mu.Unlock()
	if err != nil {
		f.setFailed(fmt.Errorf("replica: shard %d apply: %w", shard, err))
		return false, errFatal
	}
	// Keep the persisted checkpoint ledger abreast of the WAL: the follower
	// never snapshots, so without this chain.json would stay at the bootstrap
	// base and recovery at promotion would have nothing to verify tampering
	// against.
	if err := f.rep.Journals[shard].PersistChain(); err != nil {
		f.setFailed(fmt.Errorf("replica: shard %d ledger: %w", shard, err))
		return false, errFatal
	}
	f.cursors[shard].Store(last)
	f.batches.Add(1)
	f.records.Add(last - b.First + 1)
	f.shardBytes[shard].Add(uint64(len(b.Data)))
	f.shardRecords[shard].Add(last - b.First + 1)
	f.lastApplied[shard].Store(time.Now().UnixNano())
	return true, nil
}

// chainLoop refreshes the leader's committed marks for lag accounting.
func (f *Follower) chainLoop() {
	defer f.wg.Done()
	for {
		rctx, cancel := context.WithTimeout(f.ctx, requestTimeout)
		cs, err := f.client.Chains(rctx)
		cancel()
		if err == nil {
			for _, c := range cs {
				if c.Shard >= 0 && c.Shard < len(f.leaderSeqs) {
					f.leaderSeqs[c.Shard].Store(c.CommittedSeq)
				}
			}
			f.polled.Store(true)
		}
		if !sleep(f.ctx, f.opts.poll()) {
			return
		}
	}
}

func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (f *Follower) setFailed(err error) {
	f.mu.Lock()
	if f.fail == nil {
		f.fail = err
	}
	f.mu.Unlock()
}

// Err returns the sticky replication fault, if any.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

// Close stops the pull loops and releases the local journals.
func (f *Follower) Close() error {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	return f.rep.Journals.Close()
}

// --- reads the Switch forwards until promotion ---

// MinYield evaluates the replicated placement under the §6 error model.
func (f *Follower) MinYield(policy vmalloc.SchedPolicy) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, server.ErrClosed
	}
	return f.rep.Restore.MinYield(policy), nil
}

// State returns the merged park-global state of the replicated placement.
func (f *Follower) State() (*vmalloc.ClusterState, []byte, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil, server.ErrClosed
	}
	st := f.rep.Restore.State()
	f.mu.Unlock()
	data, err := server.EncodeState(st)
	if err != nil {
		return nil, nil, err
	}
	return st, data, nil
}

// Stats returns a point-in-time counter snapshot of the replica.
func (f *Follower) Stats() server.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := server.Stats{}
	if f.closed {
		return st
	}
	st.Services = f.rep.Restore.Len()
	st.Threshold = f.rep.Restore.Threshold()
	st.Shards = f.rep.Manifest.Shards
	st.Replayed = f.rep.Replayed
	st.TruncatedBytes = f.rep.TruncatedBytes
	st.SnapshotSeq = f.rep.SnapshotSeq
	st.Records = f.records.Load()
	for _, j := range f.rep.Journals {
		st.LastSeq += j.LastSeq()
	}
	return st
}

// ShardStats returns per-shard statistics of the replicated placement.
func (f *Follower) ShardStats() ([]vmalloc.ShardStat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, server.ErrClosed
	}
	return f.rep.Restore.ShardStats(), nil
}

// JournalIOStats sums the local shard journals' write-path counters.
func (f *Follower) JournalIOStats() journal.IOStats { return f.rep.Journals.IOStats() }

// ReplicaManifest returns the mirrored shard manifest, so a follower can
// itself seed further replicas.
func (f *Follower) ReplicaManifest() (*server.ShardManifest, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, server.ErrClosed
	}
	return f.rep.Manifest, nil
}

// ReplicaCheckpoint returns the newest local checkpoint of one shard (the
// bootstrap checkpoint installed from the leader, until promotion cuts new
// ones).
func (f *Follower) ReplicaCheckpoint(shard int) (*journal.Checkpoint, error) {
	js, err := f.journals()
	if err != nil {
		return nil, err
	}
	return js.Checkpoint(shard)
}

// ReplicaStream serves raw committed frames from the local WAL.
func (f *Follower) ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error) {
	js, err := f.journals()
	if err != nil {
		return nil, err
	}
	return js.Stream(shard, from, maxBytes)
}

// ChainStatus returns the local shard journals' integrity-chain status.
func (f *Follower) ChainStatus() ([]server.ShardChain, error) {
	js, err := f.journals()
	if err != nil {
		return nil, err
	}
	return js.Chains(), nil
}

// journals returns the local shard journals, or server.ErrClosed once the
// follower is closed.
func (f *Follower) journals() (server.Journals, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, server.ErrClosed
	}
	return f.rep.Journals, nil
}

// ReplicationStatus reports the follower's cursors, lag and counters.
func (f *Follower) ReplicationStatus() *server.ReplicationStatus {
	st := &server.ReplicationStatus{
		Leader:     f.opts.Leader,
		Batches:    f.batches.Load(),
		Records:    f.records.Load(),
		Retries:    f.retries.Load(),
		Bootstraps: f.bootstraps.Load(),
		Promoted:   f.promoted.Load(),
	}
	now := time.Now().UnixNano()
	for i := range f.cursors {
		applied, leader := f.cursors[i].Load(), f.leaderSeqs[i].Load()
		sh := server.FollowerShardStatus{Shard: i, AppliedSeq: applied, LeaderSeq: leader}
		if leader > applied {
			sh.Lag = leader - applied
		}
		if recs := f.shardRecords[i].Load(); recs > 0 {
			sh.BytesBehind = sh.Lag * (f.shardBytes[i].Load() / recs)
		}
		sh.SecondsSinceApplied = float64(now-f.lastApplied[i].Load()) / 1e9
		st.Shards = append(st.Shards, sh)
	}
	return st
}

// Ready reports whether the follower can serve reads: no sticky fault, at
// least one successful leader poll, and every shard within the lag bound.
func (f *Follower) Ready() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return server.ErrClosed
	}
	if f.fail != nil {
		err := f.fail
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	if !f.polled.Load() {
		return errors.New("replica: leader not yet reached")
	}
	bound := f.opts.readyLag()
	if bound < 0 {
		return nil
	}
	for i := range f.cursors {
		applied, leader := f.cursors[i].Load(), f.leaderSeqs[i].Load()
		if leader > applied && int64(leader-applied) > bound {
			return fmt.Errorf("replica: shard %d lags %d records (bound %d)", i, leader-applied, bound)
		}
	}
	return nil
}
