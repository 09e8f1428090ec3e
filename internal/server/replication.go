package server

import (
	"errors"
	"fmt"

	"vmalloc/internal/journal"
)

// This file is the leader-side replication surface of the durable tier: a
// store exposes its shard manifest, per-shard bootstrap checkpoints, raw
// committed WAL frames and integrity-chain status, which the HTTP layer
// serves under /v1/replica/* and a follower daemon consumes (internal/replica).
//
// The follower replays through the same ShardedRestore seam crash recovery
// uses, so every replicated byte travels the code path that is already
// proven byte-identical by the recovery tests.

// ErrReadOnly is returned by mutations on a store that is following a leader
// and has not been promoted. The HTTP layer maps it to 503 with Retry-After,
// so well-behaved clients back off and retry against the promoted store.
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

// replicaSource is the optional leader-side replication surface; a store
// that provides it (Store, a follower, a Switch) additionally serves the
// /v1/replica/* read endpoints.
type replicaSource interface {
	ReplicaManifest() (*ShardManifest, error)
	ReplicaCheckpoint(shard int) (*journal.Checkpoint, error)
	ReplicaStream(shard int, from uint64, maxBytes int) (*StreamBatch, error)
	ChainStatus() ([]ShardChain, error)
}

// replicaStatser is the optional follower-side surface: lag and cursor
// telemetry served on GET /v1/replica/status and exported as metrics.
type replicaStatser interface {
	ReplicationStatus() *ReplicationStatus
}

// promoter is the optional failover surface: POST /v1/promote flips a
// following store into a writable leader after verifying it caught up.
type promoter interface {
	Promote() error
}

// readier is the optional readiness surface behind GET /readyz: nil means
// the store can serve its role (journal writable; for a follower, within
// the configured lag bound). Distinct from /healthz, which only says the
// process is alive.
type readier interface {
	Ready() error
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
	j, err := s.shardJournal(shard)
	if err != nil {
		return nil, err
	}
	cp, err := j.LatestCheckpoint()
	if err != nil {
		return nil, err
	}
	if cp == nil {
		if _, err := s.Checkpoint(); err != nil {
			return nil, err
		}
		if cp, err = j.LatestCheckpoint(); err != nil {
			return nil, err
		}
		if cp == nil {
			return nil, fmt.Errorf("server: shard %d has no checkpoint", shard)
		}
	}
	return cp, nil
}

// ReplicaStream returns raw committed frames of one shard starting after
// cursor `from`, at most maxBytes (best-effort; at least one frame when any
// is committed). A nil batch means the follower is caught up. ErrCompacted
// means the cursor predates retention and the follower must re-bootstrap.
func (s *Store) ReplicaStream(shard int, from uint64, maxBytes int) (*StreamBatch, error) {
	j, err := s.shardJournal(shard)
	if err != nil {
		return nil, err
	}
	data, first, last, err := j.ReadEncoded(from, maxBytes)
	if err != nil {
		return nil, err
	}
	if first == 0 {
		return nil, nil
	}
	return &StreamBatch{First: first, Last: last, Data: data}, nil
}

// ChainStatus returns the committed high-water mark, chain head and
// checkpoint ledger of every shard journal.
func (s *Store) ChainStatus() ([]ShardChain, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	js := s.js
	s.mu.Unlock()
	out := make([]ShardChain, len(js))
	for i, j := range js {
		out[i] = ShardChain{
			Shard:        i,
			CommittedSeq: j.CommittedSeq(),
			Head:         j.CommittedHead(),
			Entries:      j.Entries(),
		}
	}
	return out, nil
}

func (s *Store) shardJournal(shard int) (*journal.Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if shard < 0 || shard >= len(s.js) {
		return nil, invalid(fmt.Errorf("shard %d of %d", shard, len(s.js)))
	}
	return s.js[shard], nil
}
