package journal

import (
	"errors"
	"fmt"
	"os"
	"sort"
)

// This file is the replication I/O surface: a leader serves raw committed
// frames with ReadEncoded, a follower appends them verbatim with
// AppendFrames, and InstallSnapshot seeds a fresh follower directory from a
// leader checkpoint when the requested cursor has been compacted away.
//
// Frames travel as bytes, never re-encoded: the follower's log is a
// byte-identical prefix of the leader's (modulo segment boundaries, which
// are rotation-local), so both compute the same integrity chain and the
// same checkpoint ledger — divergence detection needs no record semantics.

// ErrCompacted reports that the requested resume point predates the oldest
// retained segment: the reader must re-bootstrap from a checkpoint.
var ErrCompacted = errors.New("journal: cursor compacted away")

// ReadEncoded returns raw committed frames for records with sequence numbers
// in (from, CommittedSeq], starting at from+1, bounded by maxBytes
// (best-effort: at least one frame is returned when any is available).
// first/last are the record range covered; first == 0 means no data was
// available. A from below the oldest retained segment returns ErrCompacted.
// Safe to call concurrently with appends: only bytes written before the
// committed watermark was read are returned, and every frame is re-verified
// by CRC on the way out.
func (j *Journal) ReadEncoded(from uint64, maxBytes int) (data []byte, first, last uint64, err error) {
	committed := j.committedSeq.Load()
	if from >= committed {
		return nil, 0, 0, nil
	}
	segs, _, err := listDir(j.fs, j.opts.Dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", err)
	}
	start := from + 1
	if len(segs) == 0 || start < segs[0] {
		return nil, 0, 0, ErrCompacted
	}
	// The segment holding start is the last one whose base is <= start.
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > start }) - 1
	expect := start
	for ; i < len(segs); i++ {
		raw, err := j.fs.ReadFile(segmentPath(j.opts.Dir, segs[i]))
		if err != nil {
			if os.IsNotExist(err) {
				// Pruned between listing and reading; the caller retries
				// and lands after the new oldest segment or re-bootstraps.
				return nil, 0, 0, ErrCompacted
			}
			return nil, 0, 0, fmt.Errorf("journal: %w", err)
		}
		stop := false
		scanFrames(raw, func(payload []byte) error {
			if stop || len(payload) < 8 {
				stop = true
				return errStopScan
			}
			seq := leU64(payload)
			if seq < expect {
				return nil // below the cursor (or snapshot-covered)
			}
			if seq != expect || seq > committed || len(data) >= maxBytes {
				// A gap (short-read artifact), uncommitted tail, or a full
				// buffer all end the batch; the caller resumes from `last`.
				stop = true
				return errStopScan
			}
			data = appendFrame(data, payload)
			last = seq
			expect++
			return nil
		})
		if stop || expect > committed {
			break
		}
	}
	if last == 0 {
		return nil, 0, 0, nil
	}
	return data, start, last, nil
}

// errStopScan aborts a scanFrames walk early; never escapes this file.
var errStopScan = errors.New("journal: stop scan")

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// AppendFrames validates and appends pre-framed records verbatim, returning
// once they are durable. The frames must decode cleanly, carry consecutive
// sequence numbers, and start exactly at LastSeq+1 — a replica applies the
// leader's log bytes or nothing. Returns the new last sequence number.
//
// Because the bytes land unmodified, a follower fed by ReadEncoded holds a
// log that is a byte-identical prefix of the leader's and computes the same
// integrity chain.
func (j *Journal) AppendFrames(data []byte) (uint64, error) {
	if len(data) == 0 {
		return j.LastSeq(), nil
	}
	type span struct{ start, end int }
	var spans []span
	var seqs []uint64
	off := 0
	valid, err := scanFrames(data, func(payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return err
		}
		if n := len(seqs); n > 0 && rec.Seq != seqs[n-1]+1 {
			return fmt.Errorf("journal: AppendFrames: seq %d after %d, not consecutive", rec.Seq, seqs[n-1])
		}
		spans = append(spans, span{off + frameHeader, off + frameHeader + len(payload)})
		seqs = append(seqs, rec.Seq)
		off += frameHeader + len(payload)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if valid != len(data) {
		return 0, fmt.Errorf("journal: AppendFrames: invalid frame at offset %d of %d", valid, len(data))
	}
	if len(seqs) == 0 {
		return j.LastSeq(), nil
	}
	ch := make(chan error, 1)
	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return 0, err
	}
	if seqs[0] != j.seq+1 {
		at := j.seq
		j.mu.Unlock()
		return 0, fmt.Errorf("journal: AppendFrames: frames start at seq %d, journal is at %d", seqs[0], at)
	}
	j.pend.buf = append(j.pend.buf, data...)
	for k, sp := range spans {
		j.seq = seqs[k]
		j.advanceChain(data[sp.start:sp.end])
	}
	j.pend.recs += len(seqs)
	j.pend.waiters = append(j.pend.waiters, ch)
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	if err := <-ch; err != nil {
		return 0, err
	}
	return seqs[len(seqs)-1], nil
}

// DecodeFrames walks pre-framed records (the bytes ReadEncoded serves and
// AppendFrames accepts), decoding each payload into a Record. The whole
// buffer must be clean frames.
func DecodeFrames(data []byte, fn func(*Record) error) error {
	n, err := scanFrames(data, func(payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("journal: DecodeFrames: invalid frame at offset %d of %d", n, len(data))
	}
	return nil
}

// LatestCheckpoint pairs the newest durable snapshot with its chain base and
// the persisted checkpoint ledger — everything a follower needs to bootstrap
// via InstallSnapshot. Returns (nil, nil) when the directory has no usable
// snapshot yet; bases whose snapshot file is missing (a checkpoint whose
// rename failed) are skipped.
func (j *Journal) LatestCheckpoint() (*Checkpoint, error) {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	for k := len(j.bases) - 1; k >= 0; k-- {
		base := j.bases[k]
		state, err := j.fs.ReadFile(snapshotPath(j.opts.Dir, base.Seq))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		return &Checkpoint{
			At:       base,
			Interval: j.Interval(),
			Entries:  j.Entries(),
			State:    state,
		}, nil
	}
	return nil, nil
}

// InstallSnapshot seeds an empty journal directory from a checkpoint: the
// ledger (chain.json) and the snapshot land durably, so a subsequent Open
// recovers to the checkpoint state with the leader's chain — the replica
// continues the leader's history instead of starting its own. A directory
// already holding journal state is refused.
func InstallSnapshot(opts Options, cp Checkpoint) error {
	if opts.Dir == "" {
		return errors.New("journal: no directory")
	}
	if cp.Interval == 0 {
		return errors.New("journal: checkpoint has zero interval")
	}
	if opts.ValidateSnapshot != nil {
		if err := opts.ValidateSnapshot(cp.State); err != nil {
			return fmt.Errorf("journal: checkpoint state: %w", err)
		}
	}
	fsys := opts.fs()
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	segs, snaps, err := listDir(fsys, opts.Dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return fmt.Errorf("journal: %s already holds journal state", opts.Dir)
	}
	if m, err := loadChain(fsys, opts.Dir); err != nil {
		return err
	} else if m != nil {
		return fmt.Errorf("journal: %s already holds a checkpoint ledger", opts.Dir)
	}
	entries := make([]ChainPoint, 0, len(cp.Entries))
	for _, e := range cp.Entries {
		if n := len(entries); n > 0 && e.Seq <= entries[n-1].Seq {
			return fmt.Errorf("journal: checkpoint entries out of order at seq %d", e.Seq)
		}
		if e.Seq <= cp.At.Seq {
			entries = append(entries, e)
		}
	}
	m := &chainManifest{Interval: cp.Interval, Entries: entries, Bases: []ChainPoint{cp.At}}
	if err := writeChain(fsys, opts.Dir, m); err != nil {
		return err
	}
	return WriteFileAtomic(fsys, snapshotPath(opts.Dir, cp.At.Seq), cp.State)
}
