package server

import (
	"errors"
	"fmt"

	"vmalloc/internal/journal"
)

// This file is the replication surface of the durable tier: a store exposes
// its shard manifest, per-shard bootstrap checkpoints, raw committed WAL
// frames and integrity-chain status, which the HTTP layer serves under
// /v1/replica/* and a follower daemon consumes (internal/replica). A
// follower serves the same reads over its own journals (Journals), so
// followers can be chained.
//
// The follower replays through the same ShardedRestore seam crash recovery
// uses, so every replicated byte travels the code path that is already
// proven byte-identical by the recovery tests.

// ErrReadOnly is returned by every mutation of a replica.Switch until the
// follower behind it is promoted. The HTTP layer maps it to 503 with
// Retry-After, so well-behaved clients back off and retry against the
// promoted store.
var ErrReadOnly = errors.New("server: read-only replica (not promoted)")

// ErrCompacted re-exports the journal's compaction sentinel: the requested
// stream cursor predates the oldest retained segment and the follower must
// re-bootstrap from a checkpoint. The HTTP layer maps it to 410 Gone.
var ErrCompacted = journal.ErrCompacted

// StreamBatch is one batch of raw committed WAL frames covering sequence
// numbers [First, Last] of one shard. Data is served and applied verbatim —
// the follower's WAL stays a byte-identical prefix of the leader's.
type StreamBatch struct {
	First uint64
	Last  uint64
	Data  []byte
}

// ShardChain is the integrity-chain status of one shard journal: the acked
// (barrier-durable) high-water mark, the chain head over every committed
// record, and the persisted checkpoint ledger. A promoting follower compares
// its own ledger against this to verify it holds the same history
// (journal.CompareChains localizes any divergence in O(log n) checkpoints).
type ShardChain struct {
	Shard        int                  `json:"shard"`
	CommittedSeq uint64               `json:"committed_seq"`
	Head         journal.ChainPoint   `json:"head"`
	Entries      []journal.ChainPoint `json:"entries"`
}

// follower is the surface only a replication follower (replica.Switch) has:
// lag and cursor telemetry, served on GET /v1/replica/status and exported as
// metrics, and POST /v1/promote, which flips the follower into a writable
// leader after verifying it caught up.
type follower interface {
	ReplicationStatus() *ReplicationStatus
	Promote() error
}

// ReplicationStatus describes a follower's progress against its leader.
type ReplicationStatus struct {
	// Leader is the leader base URL the follower pulls from.
	Leader string `json:"leader"`
	// Shards holds one entry per shard journal.
	Shards []FollowerShardStatus `json:"shards"`
	// Batches and Records count everything applied since the follower
	// started; Retries counts transient pull failures that were retried.
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	Retries uint64 `json:"retries"`
	// Bootstraps counts checkpoint re-bootstraps (cursor compacted away).
	Bootstraps uint64 `json:"bootstraps"`
	// Promoted reports whether this process has been promoted to leader.
	Promoted bool `json:"promoted"`
}

// FollowerShardStatus is one shard's replication cursor.
type FollowerShardStatus struct {
	Shard int `json:"shard"`
	// AppliedSeq is the last sequence applied durably to the local WAL.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's committed seq at the last successful poll.
	LeaderSeq uint64 `json:"leader_seq"`
	// Lag is max(0, LeaderSeq-AppliedSeq) at the last poll.
	Lag uint64 `json:"lag"`
	// BytesBehind estimates the backlog still to pull: Lag multiplied by
	// this shard's mean applied record size (0 until anything has applied).
	BytesBehind uint64 `json:"bytes_behind"`
	// SecondsSinceApplied is how long ago the newest record applied to this
	// shard (time since the follower opened when nothing has applied yet).
	SecondsSinceApplied float64 `json:"seconds_since_applied"`
}

// Ready reports whether the store can serve traffic: open and with every
// shard journal writable. (ErrClosed or the sticky journal fault otherwise.)
func (s *Store) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.journalErr()
}

// ReplicaManifest returns the shard manifest a follower must mirror.
func (s *Store) ReplicaManifest() (*ShardManifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.manifest, nil
}

// ReplicaCheckpoint returns the newest durable checkpoint of one shard for
// follower bootstrap. A leader always has one (the bootstrap checkpoint is
// written on first boot); if compaction raced it away a fresh checkpoint is
// forced.
func (s *Store) ReplicaCheckpoint(shard int) (*journal.Checkpoint, error) {
	js, err := s.journals()
	if err != nil {
		return nil, err
	}
	cp, err := js.Checkpoint(shard)
	if errors.Is(err, errNoCheckpoint) {
		if _, err = s.Checkpoint(); err == nil {
			cp, err = js.Checkpoint(shard)
		}
	}
	return cp, err
}

// ReplicaStream returns raw committed frames of one shard (see
// Journals.Stream).
func (s *Store) ReplicaStream(shard int, from uint64, maxBytes int) (*StreamBatch, error) {
	js, err := s.journals()
	if err != nil {
		return nil, err
	}
	return js.Stream(shard, from, maxBytes)
}

// ChainStatus returns the integrity-chain status of every shard journal.
func (s *Store) ChainStatus() ([]ShardChain, error) {
	js, err := s.journals()
	if err != nil {
		return nil, err
	}
	return js.Chains(), nil
}

// journals returns the shard journals, or ErrClosed once the store is closed.
func (s *Store) journals() (Journals, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.js, nil
}

// Journals holds one journal per placement domain, indexed by shard: a
// leader Store's and a follower's (ShardedReplay.Journals) alike. The
// replication reads and the journal I/O sum are written once, here, for
// both roles.
type Journals []*journal.Journal

// errNoCheckpoint reports a shard journal without a durable snapshot.
var errNoCheckpoint = errors.New("server: no checkpoint")

// shard returns the journal of one shard; an index out of range is the
// client's fault (ErrInvalid).
func (js Journals) shard(i int) (*journal.Journal, error) {
	if i < 0 || i >= len(js) {
		return nil, invalid(fmt.Errorf("shard %d of %d", i, len(js)))
	}
	return js[i], nil
}

// Checkpoint returns the newest durable checkpoint of one shard, or an
// errNoCheckpoint error when it has none.
func (js Journals) Checkpoint(shard int) (*journal.Checkpoint, error) {
	j, err := js.shard(shard)
	if err != nil {
		return nil, err
	}
	cp, err := j.LatestCheckpoint()
	if err == nil && cp == nil {
		err = fmt.Errorf("%w: shard %d has none", errNoCheckpoint, shard)
	}
	return cp, err
}

// Stream returns raw committed frames of one shard starting after cursor
// from, at most maxBytes (best-effort; at least one frame when any is
// committed). A nil batch means the reader is caught up. ErrCompacted means
// the cursor predates retention and the follower must re-bootstrap.
func (js Journals) Stream(shard int, from uint64, maxBytes int) (*StreamBatch, error) {
	j, err := js.shard(shard)
	if err != nil {
		return nil, err
	}
	data, first, last, err := j.ReadEncoded(from, maxBytes)
	if err != nil || first == 0 {
		return nil, err
	}
	return &StreamBatch{First: first, Last: last, Data: data}, nil
}

// Chains returns the committed high-water mark, chain head and checkpoint
// ledger of every shard journal.
func (js Journals) Chains() []ShardChain {
	out := make([]ShardChain, len(js))
	for i, j := range js {
		out[i] = ShardChain{
			Shard:        i,
			CommittedSeq: j.CommittedSeq(),
			Head:         j.CommittedHead(),
			Entries:      j.Entries(),
		}
	}
	return out
}

// IOStats sums the cumulative write-path counters of the shard journals.
func (js Journals) IOStats() journal.IOStats {
	var sum journal.IOStats
	for _, j := range js {
		st := j.IOStats()
		sum.Records += st.Records
		sum.Batches += st.Batches
		sum.Fsyncs += st.Fsyncs
		sum.Rotations += st.Rotations
		for i := range sum.BatchSizes {
			sum.BatchSizes[i] += st.BatchSizes[i]
		}
	}
	return sum
}

// Close closes every open shard journal, and with them the directory locks,
// and reports the first failure.
func (js Journals) Close() error {
	var first error
	for _, j := range js {
		if j != nil {
			if err := j.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
