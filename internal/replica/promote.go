package replica

import (
	"context"
	"fmt"

	"vmalloc/internal/journal"
	"vmalloc/internal/server"
)

// Promote flips the follower into a writable leader.
//
// When the old leader is still reachable, promotion first proves the replica
// is safe to take over: every shard must have applied at least the leader's
// committed (acked-durable) high-water mark, and the local checkpoint ledger
// must agree with the leader's — journal.CompareChains walks the two ledgers
// and localizes any divergence in O(log n) checkpoint comparisons. Either
// failure refuses promotion (the HTTP layer maps it to 409 Conflict) and the
// follower keeps pulling.
//
// When the leader is unreachable (the failover case), those cross-checks are
// skipped and local integrity stands in for them: the pull loops stop, the
// journals close, and the directory re-opens through the ordinary crash
// recovery path — which re-hashes every record against the persisted chain
// ledger. A tampered WAL (bit flips, truncated acked records, spliced
// history) fails that verification and the promotion errors out instead of
// serving corrupt state.
//
// On success the follower is closed and the returned Store serves
// writes; the caller (Switch) swaps it into the HTTP surface atomically.
func (f *Follower) Promote(ctx context.Context) (*server.Store, error) {
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("replica: promote: replication failed: %w", err)
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, server.ErrClosed
	}

	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	chains, err := f.client.Chains(rctx)
	cancel()
	if err == nil {
		if err := f.verifyAgainst(chains); err != nil {
			return nil, err
		}
	}
	// err != nil: leader unreachable — dead-leader failover. Proceed on
	// local chain verification below.

	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	if err := f.rep.Journals.Close(); err != nil {
		return nil, fmt.Errorf("replica: promote: closing journals: %w", err)
	}
	st, err := server.Open(f.opts.Dir, nil, f.opts.Server)
	if err != nil {
		return nil, fmt.Errorf("replica: promote: %w", err)
	}
	f.promoted.Store(true)
	return st, nil
}

// verifyAgainst checks catch-up and chain agreement against a reachable
// leader's per-shard status.
func (f *Follower) verifyAgainst(chains []server.ShardChain) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return server.ErrClosed
	}
	if len(chains) != len(f.rep.Journals) {
		return fmt.Errorf("replica: promote: leader reports %d shards, replica has %d",
			len(chains), len(f.rep.Journals))
	}
	for _, c := range chains {
		if c.Shard < 0 || c.Shard >= len(f.rep.Journals) {
			return fmt.Errorf("replica: promote: leader reports unknown shard %d", c.Shard)
		}
		applied := f.cursors[c.Shard].Load()
		if applied < c.CommittedSeq {
			return fmt.Errorf("replica: promote: shard %d lags leader (applied %d < committed %d)",
				c.Shard, applied, c.CommittedSeq)
		}
		j := f.rep.Journals[c.Shard]
		if at, diverged := journal.CompareChains(j.Entries(), c.Entries); diverged {
			return fmt.Errorf("replica: promote: shard %d history diverges from leader at seq %d — replica tampered or split-brain, refusing",
				c.Shard, at.Seq)
		}
		// The heads must agree wherever both sides have hashed the same
		// prefix: at the leader's committed seq the replica has applied at
		// least as far, so a leader head ahead of the replica chain means
		// divergence the sparse ledger missed.
		if applied == c.CommittedSeq && c.Head.Seq == applied {
			if local := j.CommittedHead(); local.Seq == c.Head.Seq && local.Hash != c.Head.Hash {
				return fmt.Errorf("replica: promote: shard %d chain head mismatch at seq %d — replica tampered or split-brain, refusing",
					c.Shard, applied)
			}
		}
	}
	return nil
}
