package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vmalloc/internal/faultfs"
)

// FsyncMode selects the durability of Append.
type FsyncMode int

const (
	// FsyncBatch (the default) fsyncs once per commit batch: every Append
	// returns only after its record is on stable storage, and concurrent
	// appends share one fsync (group commit).
	FsyncBatch FsyncMode = iota
	// FsyncNone writes without syncing; a crash can lose the OS-buffered
	// tail. Useful for replay benchmarks and bulk loads.
	FsyncNone
)

// Options configures a journal directory.
type Options struct {
	// Dir is the journal directory, created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size;
	// <= 0 selects 8 MiB. Rotation happens at batch boundaries, so segments
	// can overshoot by one commit batch.
	SegmentBytes int64
	// Fsync selects the Append durability mode.
	Fsync FsyncMode
	// KeepSnapshots is how many snapshots (and the segments needed to
	// recover from the oldest of them) are retained; <= 0 selects 2.
	// Keeping more than one lets recovery fall back when the newest
	// snapshot file is torn.
	KeepSnapshots int
	// ValidateSnapshot, when non-nil, is applied to snapshot bytes during
	// recovery; a snapshot failing validation is skipped in favor of the
	// next older one. The journal itself treats snapshot state as opaque.
	ValidateSnapshot func([]byte) error
	// FS is the filesystem the journal runs on; nil selects the real OS.
	// Tests thread a faultinject.Injector to prove the durability contract
	// under injected write/fsync/rename faults.
	FS faultfs.FS
	// ChainInterval is how often, in records, the rolling integrity chain
	// is checkpointed (see chain.go); <= 0 selects 512. The interval is
	// sticky per directory: an existing chain.json's interval wins, so
	// replicas of one history always checkpoint at the same seqs.
	ChainInterval int
}

func (o Options) fs() faultfs.FS {
	if o.FS == nil {
		return faultfs.OS{}
	}
	return o.FS
}

func (o Options) chainInterval() uint64 {
	if o.ChainInterval <= 0 {
		return 512
	}
	return uint64(o.ChainInterval)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 8 << 20
	}
	return o.SegmentBytes
}

func (o Options) keepSnapshots() int {
	if o.KeepSnapshots <= 0 {
		return 2
	}
	return o.KeepSnapshots
}

// RecoveryInfo summarizes what recovery found in a journal directory.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number covered by the loaded snapshot
	// (0 when the directory held none).
	SnapshotSeq uint64
	// Snapshot is the loaded snapshot state, nil when none was found.
	Snapshot []byte
	// SkippedSnapshots counts newer snapshot files that were unreadable or
	// failed validation and were passed over.
	SkippedSnapshots int
	// Replayed counts the records delivered to the replay callback.
	Replayed int
	// TruncatedBytes is the size of the torn tail cut from the last
	// segment, 0 for a clean shutdown.
	TruncatedBytes int
	// LastSeq is the sequence number of the last durable record (equal to
	// SnapshotSeq when the log held nothing newer).
	LastSeq uint64
	// VerifiedChain counts the chain checkpoints recomputed and matched
	// during replay; 0 for a directory that predates the chain or whose
	// checkpoints all sit at or below the snapshot.
	VerifiedChain int
}

// Recovery is the first phase of opening a journal: the snapshot has been
// located and loaded, the segment plan is known, and the record tail can be
// replayed exactly once before the journal is opened for appending.
type Recovery struct {
	opts     Options
	fs       faultfs.FS
	info     RecoveryInfo
	segs     []uint64
	replayed bool
	lock     *os.File // exclusive directory lock; transferred to the Journal

	// Integrity-chain state: the manifest from chain.json (nil for a
	// legacy directory), the interval in force, the chain head after
	// replay, and the checkpoint ledger carried into the journal.
	manifest *chainManifest
	interval uint64
	head     ChainPoint
	entries  []ChainPoint
}

// Close releases the directory lock when the recovery is abandoned before
// Journal() took ownership of it. Harmless to call otherwise.
func (rc *Recovery) Close() error {
	if rc.lock == nil {
		return nil
	}
	err := rc.lock.Close()
	rc.lock = nil
	return err
}

// DirHasJournal reports whether dir already holds journal state (segments
// or snapshots) — i.e. whether opening it would recover an existing cluster
// rather than bootstrap a fresh one. A missing directory reports false; the
// check does not take the directory lock.
func DirHasJournal(dir string) bool {
	segs, snaps, err := listDir(faultfs.OS{}, dir)
	return err == nil && (len(segs) > 0 || len(snaps) > 0)
}

// Recover locates the newest usable snapshot in opts.Dir (creating the
// directory if needed) and prepares tail replay. Snapshot files that fail to
// read or validate are skipped in favor of older ones.
func Recover(opts Options) (*Recovery, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: no directory")
	}
	fsys := opts.fs()
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	segs, snaps, err := listDir(fsys, opts.Dir)
	if err != nil {
		if lock != nil {
			lock.Close()
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	rc := &Recovery{opts: opts, fs: fsys, segs: segs, lock: lock}
	if rc.manifest, err = loadChain(fsys, opts.Dir); err != nil {
		rc.Close()
		return nil, err
	}
	rc.interval = opts.chainInterval()
	if rc.manifest != nil {
		rc.interval = rc.manifest.Interval
		rc.entries = rc.manifest.Entries
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(snapshotPath(opts.Dir, snaps[i]))
		if err == nil && opts.ValidateSnapshot != nil {
			err = opts.ValidateSnapshot(data)
		}
		if err != nil {
			rc.info.SkippedSnapshots++
			continue
		}
		rc.info.SnapshotSeq = snaps[i]
		rc.info.Snapshot = data
		break
	}
	if rc.info.Snapshot == nil && rc.info.SkippedSnapshots > 0 {
		rc.Close()
		return nil, fmt.Errorf("journal: all %d snapshots in %s are unreadable", rc.info.SkippedSnapshots, opts.Dir)
	}
	rc.info.LastSeq = rc.info.SnapshotSeq
	// Seed the chain at the snapshot: records it covers are not replayed,
	// so their chain comes from the persisted base. chain.json is written
	// before its snapshot is renamed into place, so a selected snapshot
	// always has a base — except in a legacy directory (no chain.json),
	// which seeds zero and starts checkpointing from here on.
	rc.head = ChainPoint{Seq: rc.info.SnapshotSeq}
	if rc.manifest != nil && rc.info.SnapshotSeq > 0 {
		base, ok := findPoint(rc.manifest.Bases, rc.info.SnapshotSeq)
		if !ok {
			base, ok = findPoint(rc.manifest.Entries, rc.info.SnapshotSeq)
		}
		if !ok {
			rc.Close()
			return nil, fmt.Errorf("journal: chain.json has no point for snapshot seq %d", rc.info.SnapshotSeq)
		}
		rc.head = base
	}
	return rc, nil
}

// Info returns what recovery has established so far. The snapshot fields are
// valid immediately after Recover; Replayed, TruncatedBytes and LastSeq are
// final only after Replay.
func (rc *Recovery) Info() RecoveryInfo { return rc.info }

// Replay streams every durable record newer than the snapshot to fn, in
// sequence order. A torn final record (crash mid-append) is truncated from
// the last segment and not delivered; any other framing or continuity damage
// is an error, as is a non-nil error from fn. Replay must be called exactly
// once before Journal.
//
// Replay also recomputes the integrity chain from the snapshot's base and
// verifies every persisted checkpoint it crosses: a record whose bytes were
// altered after commit — even with its frame CRC recomputed to match —
// produces a chain mismatch and fails recovery, as does a checkpoint
// claiming a seq the log no longer reaches (durable records removed).
func (rc *Recovery) Replay(fn func(*Record) error) error {
	if rc.replayed {
		return errors.New("journal: Replay called twice")
	}
	rc.replayed = true
	snapSeq := rc.info.SnapshotSeq
	prevSeq := snapSeq // last sequence number seen (or covered by snapshot)
	// Checkpoints above the snapshot are verification targets; interval
	// crossings beyond the last known entry extend the ledger.
	var checks []ChainPoint
	if rc.manifest != nil {
		checks = mergePoints(rc.manifest.Entries, rc.manifest.Bases, snapSeq)
	}
	lastEntry := uint64(0)
	if n := len(rc.entries); n > 0 {
		lastEntry = rc.entries[n-1].Seq
	}
	for i, base := range rc.segs {
		last := i == len(rc.segs)-1
		// Skip segments entirely covered by the snapshot: segment i holds
		// [base_i, base_{i+1}-1].
		if !last && rc.segs[i+1] <= snapSeq+1 {
			continue
		}
		path := segmentPath(rc.opts.Dir, base)
		data, err := rc.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		expect := base
		valid, err := scanFrames(data, func(payload []byte) error {
			rec, err := decodePayload(payload)
			if err != nil {
				return err
			}
			if rec.Seq != expect {
				return fmt.Errorf("journal: %s: record seq %d, want %d", path, rec.Seq, expect)
			}
			expect++
			if rec.Seq <= snapSeq {
				return nil // covered by the snapshot
			}
			if rec.Seq != prevSeq+1 {
				return fmt.Errorf("journal: %s: gap: record seq %d after %d", path, rec.Seq, prevSeq)
			}
			prevSeq = rec.Seq
			rc.head = ChainPoint{Seq: rec.Seq, Hash: chainNext(rc.head.Hash, payload)}
			for len(checks) > 0 && checks[0].Seq == rec.Seq {
				if checks[0].Hash != rc.head.Hash {
					return fmt.Errorf("journal: %s: chain mismatch at seq %d: log bytes do not match the checkpoint ledger (tampered or diverged)", path, rec.Seq)
				}
				rc.info.VerifiedChain++
				checks = checks[1:]
			}
			if rec.Seq%rc.interval == 0 && rec.Seq > lastEntry {
				rc.entries = append(rc.entries, rc.head)
			}
			rc.info.Replayed++
			if fn != nil {
				return fn(rec)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if valid < len(data) {
			if !last {
				return fmt.Errorf("journal: %s: corrupt record at offset %d (not the last segment)", path, valid)
			}
			// A real torn tail (crash mid-append) holds only records that
			// were never barrier-durable, and those can never reach a
			// persisted checkpoint. A tail that stops short of one means
			// the file bytes are lying — a torn read or tampering — and
			// truncating would destroy durable records, so refuse.
			if len(checks) > 0 {
				return fmt.Errorf("journal: %s: tail ends at offset %d before checkpoint seq %d: refusing to truncate durable records (torn read or tampering)", path, valid, checks[0].Seq)
			}
			// Torn tail from a crash mid-append: drop it.
			rc.info.TruncatedBytes = len(data) - valid
			if err := rc.fs.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("journal: truncating torn tail: %w", err)
			}
		}
		if expect == base && !last {
			return fmt.Errorf("journal: %s: empty non-final segment", path)
		}
	}
	if len(checks) > 0 {
		// chain.json only records checkpoints for barrier-durable records,
		// so a leftover target means durable records are gone — a torn tail
		// never legitimately reaches them.
		return fmt.Errorf("journal: checkpoint ledger covers seq %d but the log ends at %d: durable records are missing", checks[0].Seq, prevSeq)
	}
	rc.info.LastSeq = prevSeq
	return nil
}

// mergePoints merges two seq-sorted checkpoint lists into the verification
// queue: every point above floor, seq-sorted, duplicates collapsed only when
// identical (a base and an entry at the same seq must agree; keeping both
// would double-verify, keeping a mismatched pair must fail, so both are kept
// and the replay check compares each).
func mergePoints(a, b []ChainPoint, floor uint64) []ChainPoint {
	out := make([]ChainPoint, 0, len(a)+len(b))
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		var p ChainPoint
		switch {
		case i == len(a):
			p, k = b[k], k+1
		case k == len(b):
			p, i = a[i], i+1
		case a[i].Seq <= b[k].Seq:
			p, i = a[i], i+1
		default:
			p, k = b[k], k+1
		}
		if p.Seq > floor {
			out = append(out, p)
		}
	}
	return out
}

// pending is the enqueue-side state handed to the committer in one batch.
// lastSeq/lastChain are the chain head as of the batch's final record, so the
// committer can publish the committed head without hashing anything itself.
type pending struct {
	buf       []byte
	waiters   []chan error
	recs      int
	barrier   bool
	lastSeq   uint64
	lastChain [32]byte
}

// Ticket is a pending durable append; Wait blocks until the record's commit
// batch is on stable storage (or the journal has failed).
type Ticket struct{ ch chan error }

// Wait blocks for the group commit covering this ticket.
func (t *Ticket) Wait() error { return <-t.ch }

// Journal is an open write-ahead log. Append and Batch.Commit are safe for
// concurrent use; one background committer serializes writes, batching all
// concurrently enqueued records into a single write+fsync (group commit).
type Journal struct {
	opts Options
	fs   faultfs.FS

	mu     sync.Mutex
	seq    uint64 // last assigned sequence number
	pend   pending
	spare  pending // recycled buffers for the next batch
	failed error

	// Integrity chain (under mu): the rolling hash at seq, the interval
	// checkpoint ledger, and the checkpoint spacing in force.
	chain    ChainPoint
	entries  []ChainPoint
	interval uint64

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	// Committer-owned file state; committedSeq/committedHead are published
	// for lock-free readers (replication streams ship only committed data).
	file          faultfs.File
	fileBase      uint64
	fileSize      int64
	committedSeq  atomic.Uint64
	committedHead atomic.Pointer[ChainPoint]

	lock *os.File // exclusive directory lock, released at Close

	io ioCounters // write-path instrumentation (see IOStats)

	snapMu         sync.Mutex   // serializes WriteSnapshot
	bases          []ChainPoint // snapshot seed points (under snapMu)
	persistedEntry uint64       // newest ledger entry seq written to chain.json (under snapMu)
}

// Journal finishes opening: it positions the append point after the last
// durable record and starts the group-commit committer. Replay must have
// completed first.
func (rc *Recovery) Journal() (*Journal, error) {
	if !rc.replayed {
		return nil, errors.New("journal: Journal before Replay")
	}
	j := &Journal{
		opts:     rc.opts,
		fs:       rc.fs,
		seq:      rc.info.LastSeq,
		chain:    rc.head,
		entries:  rc.entries,
		interval: rc.interval,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		lock:     rc.lock,
	}
	if rc.manifest != nil {
		j.bases = rc.manifest.Bases
	}
	j.committedSeq.Store(rc.info.LastSeq)
	head := rc.head
	j.committedHead.Store(&head)
	rc.lock = nil // the journal now owns the directory lock
	fail := func(err error) (*Journal, error) {
		if j.lock != nil {
			j.lock.Close()
		}
		return nil, err
	}
	if n := len(rc.segs); n > 0 {
		base := rc.segs[n-1]
		f, err := j.fs.OpenFile(segmentPath(rc.opts.Dir, base), os.O_WRONLY, 0)
		if err != nil {
			return fail(fmt.Errorf("journal: %w", err))
		}
		size, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return fail(fmt.Errorf("journal: %w", err))
		}
		j.file, j.fileBase, j.fileSize = f, base, size
	} else {
		if err := j.openSegment(rc.info.LastSeq + 1); err != nil {
			return fail(err)
		}
	}
	go j.run()
	return j, nil
}

// Open is the convenience one-shot: Recover, Replay(fn), Journal.
func Open(opts Options, fn func(*Record) error) (*Journal, RecoveryInfo, error) {
	rc, err := Recover(opts)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if err := rc.Replay(fn); err != nil {
		rc.Close()
		return nil, rc.info, err
	}
	j, err := rc.Journal()
	if err != nil {
		rc.Close()
		return nil, rc.info, err
	}
	return j, rc.info, nil
}

// LastSeq returns the sequence number of the last enqueued record.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// ChainHead returns the integrity chain at the last enqueued record. Callers
// that pair state with its chain point capture both under their own state
// lock, exactly as with LastSeq.
func (j *Journal) ChainHead() ChainPoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.chain
}

// CommittedSeq returns the sequence number of the last durably committed
// record: everything at or below it is fsynced (or handed to the OS under
// FsyncNone) and safe to stream to a replica.
func (j *Journal) CommittedSeq() uint64 { return j.committedSeq.Load() }

// CommittedHead returns the integrity chain at CommittedSeq — the acked
// high-water mark a promotion check compares against.
func (j *Journal) CommittedHead() ChainPoint { return *j.committedHead.Load() }

// Interval returns the checkpoint spacing in force for this directory.
func (j *Journal) Interval() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.interval
}

// Entries returns the committed checkpoint ledger: the chain at every
// interval multiple up to CommittedSeq. Replicas of the same history return
// pointwise-equal ledgers over their common range (see CompareChains).
func (j *Journal) Entries() []ChainPoint {
	committed := j.committedSeq.Load()
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for n < len(j.entries) && j.entries[n].Seq <= committed {
		n++
	}
	out := make([]ChainPoint, n)
	copy(out, j.entries[:n])
	return out
}

// advanceChain extends the integrity chain over one just-assigned payload.
// Called under mu with j.seq already advanced and the seq prefix patched in.
func (j *Journal) advanceChain(payload []byte) {
	j.chain = ChainPoint{Seq: j.seq, Hash: chainNext(j.chain.Hash, payload)}
	if j.seq%j.interval == 0 {
		j.entries = append(j.entries, j.chain)
	}
	j.pend.lastSeq, j.pend.lastChain = j.seq, j.chain.Hash
}

// Err returns the sticky write failure, if any. A failed journal rejects all
// further appends: the in-memory state it was logging is now ahead of the
// log, so the owner must stop accepting mutations.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Append durably writes r (group-committed with concurrent appends) and
// fills in r.Seq.
func (j *Journal) Append(r *Record) error {
	b := Batch{j: j}
	if err := b.Add(r); err != nil {
		return err
	}
	t, seq := j.enqueue(b.payloads, b.ends)
	if err := t.Wait(); err != nil {
		return err
	}
	r.Seq = seq
	return nil
}

// enqueue queues one group of encoded payloads for the committer — payload i
// is payloads[ends[i-1]:ends[i]] — under a single lock acquisition: the
// records receive consecutive sequence numbers with nothing interleaved and
// land in the same commit batch, so they share one write and one fsync.
// Call order equals sequence order, so callers that must keep the log
// faithful to application order enqueue while holding their own state lock
// and Wait after releasing it. The ticket resolves once the whole group is
// durable; seq is the last number assigned. A failed journal queues nothing
// and returns its failure on the ticket.
func (j *Journal) enqueue(payloads []byte, ends []int) (t *Ticket, seq uint64) {
	ch := make(chan error, 1)
	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		ch <- err
		return &Ticket{ch}, 0
	}
	start := 0
	for _, end := range ends {
		payload := payloads[start:end]
		start = end
		j.seq++
		// Patch the sequence number into the fixed 8-byte payload prefix
		// (the frame CRC is computed by appendFrame, after the patch).
		for i := 0; i < 8; i++ {
			payload[i] = byte(j.seq >> (8 * i))
		}
		j.pend.buf = appendFrame(j.pend.buf, payload)
		j.advanceChain(payload)
	}
	seq = j.seq
	j.pend.recs += len(ends)
	j.pend.waiters = append(j.pend.waiters, ch)
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return &Ticket{ch}, seq
}

// Barrier returns a ticket that resolves once everything enqueued before it
// is durable (forcing an fsync even under FsyncNone).
func (j *Journal) Barrier() *Ticket {
	ch := make(chan error, 1)
	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		ch <- err
		return &Ticket{ch}
	}
	j.pend.waiters = append(j.pend.waiters, ch)
	j.pend.barrier = true
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return &Ticket{ch}
}

// Close flushes pending appends, stops the committer and closes the active
// segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	select {
	case <-j.quit:
		j.mu.Unlock()
		<-j.done
		return nil
	default:
		close(j.quit)
	}
	j.mu.Unlock()
	<-j.done
	// Reject and drain anything enqueued after the final flush.
	j.mu.Lock()
	if j.failed == nil {
		j.failed = errClosed
	}
	late := j.pend.waiters
	j.pend.waiters = nil
	err := j.failed
	j.mu.Unlock()
	for _, ch := range late {
		ch <- errClosed
	}
	if j.file != nil {
		if cerr := j.file.Close(); cerr != nil && err == errClosed {
			err = cerr
		}
		j.file = nil
	}
	if j.lock != nil {
		j.lock.Close()
		j.lock = nil
	}
	if err == errClosed {
		return nil
	}
	return err
}

var errClosed = errors.New("journal: closed")

func (j *Journal) run() {
	defer close(j.done)
	for {
		select {
		case <-j.kick:
			j.flush()
		case <-j.quit:
			j.flush()
			return
		}
	}
}

// flush swaps out the pending batch and commits it: one write, one fsync,
// then every waiter is released. Buffers are recycled batch to batch.
//
// A write or fsync failure is terminal for the whole journal, not just the
// batch: a partial write may have advanced the file offset past garbage
// bytes, so committing anything after it could land acknowledged records
// beyond a torn frame — recovery would then truncate them silently. The
// sticky failure is therefore set *before* any waiter learns of it, and
// commit refuses to run once it is set.
func (j *Journal) flush() {
	j.mu.Lock()
	batch := j.pend
	j.pend = pending{buf: j.spare.buf[:0], waiters: j.spare.waiters[:0]}
	failed := j.failed
	j.mu.Unlock()
	if len(batch.waiters) == 0 && len(batch.buf) == 0 {
		j.spare = batch
		return
	}
	err := failed
	if err == nil {
		if err = j.commit(&batch); err != nil {
			j.mu.Lock()
			if j.failed == nil {
				j.failed = err
			}
			j.mu.Unlock()
		}
	}
	for _, ch := range batch.waiters {
		ch <- err
	}
	batch.waiters = batch.waiters[:0]
	batch.recs, batch.barrier, batch.lastSeq = 0, false, 0
	j.spare = batch
}

// commit writes one batch to the active segment, rotating first when the
// segment is full, and syncs according to the fsync mode (a barrier forces
// the sync).
func (j *Journal) commit(b *pending) error {
	if len(b.buf) > 0 && j.fileSize >= j.opts.segmentBytes() {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	if len(b.buf) > 0 {
		if _, err := j.file.Write(b.buf); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.fileSize += int64(len(b.buf))
	}
	synced := j.opts.Fsync == FsyncBatch || b.barrier
	if synced {
		if err := j.file.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.io.noteBatch(b.recs, synced)
	if b.recs > 0 {
		j.committedSeq.Store(b.lastSeq)
		head := ChainPoint{Seq: b.lastSeq, Hash: b.lastChain}
		j.committedHead.Store(&head)
	}
	return nil
}

// rotate syncs and closes the active segment and starts a fresh one whose
// first record is the next sequence number.
func (j *Journal) rotate() error {
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.file.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.file = nil
	j.io.rotations.Add(1)
	return j.openSegment(j.committedSeq.Load() + 1)
}

func (j *Journal) openSegment(firstSeq uint64) error {
	f, err := j.fs.OpenFile(segmentPath(j.opts.Dir, firstSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.fs, j.opts.Dir); err != nil {
		f.Close()
		return err
	}
	j.file, j.fileBase, j.fileSize = f, firstSeq, 0
	return nil
}

// WriteSnapshot durably records state as covering every record with sequence
// number <= at.Seq, then applies the retention policy: old snapshots beyond
// KeepSnapshots are deleted, along with every segment entirely below the
// oldest kept snapshot. The chain point pairs the state with its integrity
// hash — callers capture it with ChainHead under the same lock that captured
// the state. The checkpoint ledger (chain.json) is written before the
// snapshot is renamed into place, so a snapshot recovery can select always
// has its chain base. Safe to call concurrently with appends; concurrent
// WriteSnapshot calls serialize.
func (j *Journal) WriteSnapshot(at ChainPoint, state []byte) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	// Make sure every record the snapshot claims to cover is durable.
	if err := j.Barrier().Wait(); err != nil {
		return err
	}
	committed := j.committedSeq.Load()
	if at.Seq > committed {
		return fmt.Errorf("journal: snapshot at seq %d beyond committed %d", at.Seq, committed)
	}
	// Persist the ledger first: only checkpoints for barrier-durable
	// records, plus the new base.
	j.mu.Lock()
	entries := make([]ChainPoint, 0, len(j.entries))
	for _, e := range j.entries {
		if e.Seq <= committed {
			entries = append(entries, e)
		}
	}
	interval := j.interval
	j.mu.Unlock()
	bases := addPoint(j.bases, at)
	if err := writeChain(j.fs, j.opts.Dir, &chainManifest{Interval: interval, Entries: entries, Bases: bases}); err != nil {
		return err
	}
	j.bases = bases
	if err := WriteFileAtomic(j.fs, snapshotPath(j.opts.Dir, at.Seq), state); err != nil {
		return err
	}
	return j.prune()
}

// PersistChain durably rewrites the checkpoint ledger (chain.json) with
// every chain entry covering committed records, without cutting a snapshot.
// A replication follower calls it as it applies streamed batches: snapshot
// cadence stays the leader's job, but the follower's persisted ledger keeps
// pace with its WAL — so recovery (and therefore promotion) re-verifies the
// whole replicated history and refuses a tampered or truncated log. No-op
// when the persisted ledger is already current.
func (j *Journal) PersistChain() error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	committed := j.committedSeq.Load()
	j.mu.Lock()
	entries := make([]ChainPoint, 0, len(j.entries))
	for _, e := range j.entries {
		if e.Seq <= committed {
			entries = append(entries, e)
		}
	}
	interval := j.interval
	j.mu.Unlock()
	if n := len(entries); n == 0 || entries[n-1].Seq <= j.persistedEntry {
		return nil
	}
	if err := writeChain(j.fs, j.opts.Dir, &chainManifest{Interval: interval, Entries: entries, Bases: j.bases}); err != nil {
		return err
	}
	j.persistedEntry = entries[len(entries)-1].Seq
	return nil
}

// addPoint inserts p into a seq-sorted list, replacing an existing point at
// the same seq (a re-checkpoint at an unchanged seq is idempotent).
func addPoint(pts []ChainPoint, p ChainPoint) []ChainPoint {
	out := make([]ChainPoint, 0, len(pts)+1)
	inserted := false
	for _, q := range pts {
		if q.Seq == p.Seq {
			continue
		}
		if !inserted && q.Seq > p.Seq {
			out = append(out, p)
			inserted = true
		}
		out = append(out, q)
	}
	if !inserted {
		out = append(out, p)
	}
	return out
}

// prune deletes snapshots beyond the retention count and segments entirely
// covered by the oldest kept snapshot, then drops ledger points below the
// oldest kept snapshot (the rolling chain makes recent checkpoints
// sufficient: divergence anywhere in history changes every later hash).
// Best-effort: a crash between snapshot and prune just leaves extra files
// for the next prune. Called under snapMu.
func (j *Journal) prune() error {
	segs, snaps, err := listDir(j.fs, j.opts.Dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	keep := j.opts.keepSnapshots()
	if len(snaps) <= keep {
		keep = len(snaps)
	}
	for _, seq := range snaps[:len(snaps)-keep] {
		if err := j.fs.Remove(snapshotPath(j.opts.Dir, seq)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if keep == 0 {
		return nil
	}
	pruneSeq := snaps[len(snaps)-keep] // oldest kept snapshot
	// Segment i covers [segs[i], segs[i+1]-1]; it is disposable when its
	// whole range is <= pruneSeq. The last (active) segment always stays.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= pruneSeq+1 {
			if err := j.fs.Remove(segmentPath(j.opts.Dir, segs[i])); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("journal: %w", err)
			}
		}
	}
	// Trim the ledger to what the retained log can still verify or a
	// replica could still compare.
	cut := func(pts []ChainPoint) ([]ChainPoint, bool) {
		i := 0
		for i < len(pts) && pts[i].Seq < pruneSeq {
			i++
		}
		return pts[i:], i > 0
	}
	j.mu.Lock()
	entries, dropped := cut(j.entries)
	j.entries = entries
	entriesCopy := make([]ChainPoint, len(entries))
	copy(entriesCopy, entries)
	committed := j.committedSeq.Load()
	n := 0
	for n < len(entriesCopy) && entriesCopy[n].Seq <= committed {
		n++
	}
	interval := j.interval
	j.mu.Unlock()
	bases, droppedBases := cut(j.bases)
	if dropped || droppedBases {
		j.bases = bases
		if err := writeChain(j.fs, j.opts.Dir, &chainManifest{Interval: interval, Entries: entriesCopy[:n], Bases: bases}); err != nil {
			return err
		}
	}
	return nil
}

// WriteFileAtomic durably replaces path with data: it writes path.tmp,
// fsyncs it, renames it over path and fsyncs the directory, so a crash
// leaves either the old file or the whole new one, never a torn or empty
// one. Packages outside the journal that need a durable file (manifest
// writers) use it: the syncorder analyzer confines raw fsync calls to
// internal/journal. A nil fsys selects the real filesystem.
func WriteFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	fsys = Options{FS: fsys}.fs()
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory so entry creation/rename/truncation is durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
