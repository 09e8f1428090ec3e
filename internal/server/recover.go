package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vmalloc"
	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
)

// ShardManifest pins the immutable facts of a journal directory: the shard
// count (1 for a default boot), the admission seed and the full node park. It is written
// once, on first boot, before any shard directory exists, so recovery never
// has to guess the partition — even when a crash interrupted the very first
// bootstrap and some shard directories are missing.
type ShardManifest struct {
	Shards int            `json:"shards"`
	Seed   int64          `json:"seed"`
	Nodes  []vmalloc.Node `json:"nodes"`
}

const manifestName = "shards.json"

// LoadShardManifest reads the manifest of a journal directory, or (nil, nil)
// when dir holds none (it is not yet born, or a legacy single-WAL directory
// no boot has adopted yet).
func LoadShardManifest(dir string) (*ShardManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading shard manifest: %w", err)
	}
	var m ShardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: decoding shard manifest: %w", err)
	}
	if m.Shards < 1 || m.Shards > len(m.Nodes) {
		return nil, fmt.Errorf("server: shard manifest has %d shards over %d nodes", m.Shards, len(m.Nodes))
	}
	return &m, nil
}

// SaveShardManifest durably writes the shard manifest of dir through fsys
// (nil for the real filesystem), creating the directory if needed: the file
// is fsynced before it is renamed into place, so a crash never leaves a torn
// or empty manifest behind. A replication follower mirrors the leader's
// manifest with it before installing per-shard checkpoints.
func SaveShardManifest(fsys faultfs.FS, dir string, m *ShardManifest) error {
	if m == nil || m.Shards < 1 || m.Shards > len(m.Nodes) {
		return errors.New("server: invalid shard manifest")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	data, err := json.Marshal(m)
	if err == nil {
		err = journal.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), data)
	}
	if err != nil {
		return fmt.Errorf("server: writing shard manifest: %w", err)
	}
	return nil
}

// ShardDir returns the journal directory of shard s under dir.
func ShardDir(dir string, s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", s)) }

// recoveredManifest returns the manifest a recovered directory boots under:
// the one on disk, or — for a legacy single-WAL directory (journal files at
// the top level, platform inside its newest valid snapshot) — the one-shard
// manifest prepareDir writes when it adopts the directory, reported with
// legacy set and the seed still to be filled in. (nil, false, nil) means dir
// holds no journal at all.
func recoveredManifest(dir string, fsys faultfs.FS) (m *ShardManifest, legacy bool, err error) {
	if m, err = LoadShardManifest(dir); m != nil || err != nil || !journal.DirHasJournal(dir) {
		return m, false, err
	}
	var st *vmalloc.ClusterState
	rc, err := journal.Recover(journal.Options{Dir: dir, FS: fsys, ValidateSnapshot: keepState(&st)})
	if err != nil {
		return nil, false, err
	}
	defer rc.Close()
	if rc.Info().Snapshot == nil {
		return nil, false, fmt.Errorf("server: %s holds a single-WAL journal with no snapshot to read its platform from", dir)
	}
	return &ShardManifest{Shards: 1, Nodes: st.Nodes}, true, nil
}

// keepState is a snapshot validator that keeps the state it decoded, so a
// recovery decodes each snapshot once. journal.Recover tries snapshots newest
// first and stops at the first valid one, so *st ends as the state of the
// snapshot it selected.
func keepState(st **vmalloc.ClusterState) func([]byte) error {
	return func(b []byte) error {
		s, err := DecodeState(b)
		if err == nil {
			*st = s
		}
		return err
	}
}

// eachShard runs fn for shards 0..k-1, one goroutine per shard, and returns
// once all have finished: nil, or the error of the lowest-numbered shard
// that failed.
func eachShard(k int, fn func(i int) error) error {
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DirRecovered reports whether dir already holds a journaled cluster — i.e.
// whether booting from it recovers an existing platform instead of
// bootstrapping the one named on the command line — and the manifest it
// boots under (for a legacy single-WAL directory, the one-shard manifest its
// migration will write).
func DirRecovered(dir string) (recovered bool, manifest *ShardManifest, err error) {
	m, _, err := recoveredManifest(dir, nil)
	return m != nil, m, err
}

// DescribeDir summarizes the recovered platform of a journal directory for
// operator-facing messages ("which platform would win"), without keeping
// the directory open.
func DescribeDir(dir string) string {
	_, m, err := DirRecovered(dir)
	if err != nil || m == nil {
		return "an existing journal"
	}
	return fmt.Sprintf("%d shards over %d nodes", m.Shards, len(m.Nodes))
}

// prepareDir makes dir a manifest-plus-shard-directories journal directory
// before recovery reads it. A directory with a manifest already is one; a
// fresh one gets its manifest from nodes (or, one shard only,
// opts.InitialState); a legacy single-WAL directory is adopted as shard 0 of
// a one-shard store — manifest first, then its journal files move into
// shard-0/. Every step is a rename, so a crash anywhere leaves a directory
// the next boot finishes: no manifest yet means the adoption starts over, a
// one-shard manifest beside top-level journal files means the move resumes.
func prepareDir(dir string, nodes []vmalloc.Node, opts *Options) error {
	m, legacy, err := recoveredManifest(dir, opts.FS)
	if err != nil {
		return err
	}
	fresh := m == nil
	if fresh {
		m = &ShardManifest{Shards: max(opts.Shards, 1), Nodes: nodes}
		if opts.InitialState != nil {
			m.Nodes = opts.InitialState.Nodes
		}
		if len(m.Nodes) == 0 {
			return errors.New("server: fresh directory needs nodes or an initial state")
		}
		if m.Shards > len(m.Nodes) {
			return fmt.Errorf("server: %d shards over %d nodes (want 1 <= shards <= nodes)", m.Shards, len(m.Nodes))
		}
	}
	if opts.InitialState != nil && m.Shards > 1 {
		return fmt.Errorf("server: -state-in holds one merged state, which is a shard's state only when there is one shard; boot with -shards 1 or admit through the API (%d shards)", m.Shards)
	}
	if fresh || legacy {
		m.Seed = opts.ShardSeed
		if err := SaveShardManifest(opts.FS, dir, m); err != nil {
			return err
		}
	}
	if m.Shards == 1 {
		// Adopts a legacy journal, resumes an adoption a crash interrupted,
		// and is a no-op on a directory born in this layout.
		return journal.Relocate(opts.FS, dir, ShardDir(dir, 0))
	}
	return nil
}

// ShardedReplay is a recovered-but-unreconciled journal directory: every
// shard journal is open for appending, every shard engine is restored from
// its snapshot with the WAL tail replayed, and the ShardedRestore is still
// open — reconciliation (Finish) has NOT run. It is the serving state of a
// replication follower: the leader's streamed records keep applying through
// Restore, and promotion finishes (or re-opens) the directory into a
// writable Store.
type ShardedReplay struct {
	Manifest *ShardManifest
	Restore  *vmalloc.ShardedRestore
	Journals Journals
	// Boot-time recovery facts, summed over shards.
	Replayed       int
	TruncatedBytes int
	SnapshotSeq    uint64
	// Fresh reports that at least one shard had no snapshot (first boot).
	Fresh bool
}

// OpenShardedReplay recovers a journal directory up to — but not including —
// cross-shard reconciliation. The directory must already hold a shard
// manifest (Open writes one on first boot; a follower copies the leader's).
// Open composes this with Finish; a replication
// follower keeps the replay seam open and applies streamed records instead.
func OpenShardedReplay(dir string, opts *Options) (*ShardedReplay, error) {
	if opts == nil {
		opts = &Options{}
	}
	m, err := LoadShardManifest(dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("server: %s has no shard manifest", dir)
	}
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return nil, fmt.Errorf("server: -shards %d conflicts with recovered manifest (%d shards)", opts.Shards, m.Shards)
	}
	rp := &ShardedReplay{Manifest: m}

	// Phase 1, every shard at once: journal recovery — the newest snapshot
	// that decodes and validates, kept as decoded.
	recs := make([]*journal.Recovery, m.Shards)
	states := make([]*vmalloc.ClusterState, m.Shards)
	defer func() {
		for _, rc := range recs {
			if rc != nil {
				rc.Close()
			}
		}
	}()
	err = eachShard(m.Shards, func(i int) error {
		rc, err := journal.Recover(journal.Options{
			Dir:              ShardDir(dir, i),
			SegmentBytes:     opts.SegmentBytes,
			Fsync:            opts.Fsync,
			ChainInterval:    opts.ChainInterval,
			FS:               opts.FS,
			ValidateSnapshot: keepState(&states[i]),
		})
		if err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
		recs[i] = rc
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rc := range recs {
		if rc.Info().Snapshot == nil {
			rp.Fresh = true
			// Non-nil only when bootstrapping a one-shard directory from a
			// saved state (prepareDir rejects it with more shards).
			states[i] = opts.InitialState
		}
	}

	// Phase 2: restore engines from snapshots, replay each shard's tail —
	// in shard order, into the one shared restore.
	sopts := &vmalloc.ShardedOptions{
		ClusterOptions: opts.Cluster,
		Shards:         m.Shards,
		Seed:           m.Seed,
	}
	restore, err := vmalloc.RestoreShardedCluster(m.Nodes, states, sopts)
	if err != nil {
		return nil, err
	}
	rp.Restore = restore
	for i, rc := range recs {
		shardIdx := i
		if err := rc.Replay(func(r *journal.Record) error {
			return ApplyShardRecord(restore, shardIdx, r)
		}); err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		info := rc.Info()
		rp.Replayed += info.Replayed
		rp.TruncatedBytes += info.TruncatedBytes
		if info.SnapshotSeq > rp.SnapshotSeq {
			rp.SnapshotSeq = info.SnapshotSeq
		}
	}

	// Phase 3, every shard at once: open the journals for appending.
	rp.Journals = make(Journals, m.Shards)
	err = eachShard(m.Shards, func(i int) error {
		j, err := recs[i].Journal()
		if err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
		rp.Journals[i] = j
		return nil
	})
	if err != nil {
		rp.Journals.Close()
		return nil, err
	}
	return rp, nil
}

// ApplyShardRecord replays one journaled decision of shard i against an open
// ShardedRestore. Boot-time recovery and a replication follower's streamed
// apply path share it, so a follower interprets records exactly the way a
// crash-recovering leader would.
func ApplyShardRecord(rc *vmalloc.ShardedRestore, i int, r *journal.Record) error {
	switch r.Op {
	case journal.OpAdd:
		return rc.ShardAdd(i, r.ID, r.Node, r.TrueSvc, r.EstSvc)
	case journal.OpMoveIn:
		return rc.ShardMoveIn(i, r.ID, r.Node, r.Gen, r.TrueSvc, r.EstSvc)
	case journal.OpRemove:
		return rc.ShardRemove(i, r.ID)
	case journal.OpMoveOut:
		return rc.ShardMoveOut(i, r.ID, r.Gen)
	case journal.OpUpdateNeeds:
		return rc.ShardUpdateNeeds(i, r.ID, r.Needs)
	case journal.OpSetThreshold:
		return rc.ShardSetThreshold(i, r.Threshold)
	case journal.OpEpoch:
		return rc.ShardApplyPlacement(i, r.IDs, r.Placement)
	}
	return fmt.Errorf("server: replay: unknown op %d (seq %d)", uint8(r.Op), r.Seq)
}
