package journal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vmalloc/internal/testutil/faultinject"
)

// TestTortureAckedNeverLost is the durability contract under injected write
// and fsync faults: a record whose Append returned nil must survive recovery,
// for every torture seed, no matter where in the commit path the fault
// landed. Unacked records may or may not survive — but never out of order.
func TestTortureAckedNeverLost(t *testing.T) {
	recs := testRecords(400)
	injectedTotal := uint64(0)
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.NewInjector(nil, seed)
			opts := Options{Dir: dir, FS: inj, ChainInterval: 8, SegmentBytes: 4096}
			j, _, err := Open(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i, r := range recs {
				if i == 40 {
					// Let the journal warm up clean, then turn on the weather.
					inj.Torture(0.01, 0.01, 0)
				}
				if err := j.Append(r); err != nil {
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("append %d failed with a non-injected error: %v", i, err)
					}
					break
				}
				acked = i + 1
			}
			j.Close() // returns the sticky fault; the "crash"

			// Reboot on clean hardware: every acked record must replay, in
			// order, byte-for-byte, and the chain must verify.
			var got []*Record
			clean := Options{Dir: dir, ChainInterval: 8}
			j2, info, err := Open(clean, func(r *Record) error {
				cp := *r
				got = append(got, &cp)
				return nil
			})
			if err != nil {
				t.Fatalf("recovery after torture (acked=%d): %v", acked, err)
			}
			defer j2.Close()
			if info.Replayed < acked {
				t.Fatalf("recovered %d records but %d were acked", info.Replayed, acked)
			}
			for i, r := range got {
				want := *recs[i]
				want.Seq = uint64(i + 1)
				if !reflect.DeepEqual(*r, want) {
					t.Fatalf("record %d differs after recovery:\n got %+v\nwant %+v", i, *r, want)
				}
			}
			// The survivor journal is fully writable again.
			if err := j2.Append(recs[len(recs)-1]); err != nil {
				t.Fatal(err)
			}
			c := inj.Counts()
			for op := range c.Injected {
				injectedTotal += c.Injected[op]
			}
		})
	}
	if injectedTotal == 0 {
		t.Fatal("torture injected zero faults across all seeds; the test is vacuous")
	}
}

// TestSnapshotRenameFaultRecoverable: a checkpoint whose snapshot rename
// fails leaves the directory fully recoverable — chain.json may already
// carry a base for the snapshot that never landed, and recovery must shrug
// that off and fall back to the log.
func TestSnapshotRenameFaultRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 7)
	opts := Options{Dir: dir, FS: inj, ChainInterval: 4}
	j := openFresh(t, opts)
	recs := testRecords(12)
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// First rename is chain.json (succeeds), second is the snapshot (fails):
	// the worst ordering, because the ledger now references a base with no
	// matching snapshot file.
	inj.FailRenames(1)
	if err := j.WriteSnapshot(j.ChainHead(), []byte(`{"at":12}`)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("snapshot under rename fault: %v, want injected", err)
	}
	inj.Disarm()
	// The journal itself is not poisoned: appends and a retried checkpoint
	// still work.
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, j2 := replayAll(t, Options{Dir: dir, ChainInterval: 4})
	defer j2.Close()
	if info.SnapshotSeq != 0 || info.Replayed != 13 || info.LastSeq != 13 {
		t.Fatalf("recovery after failed checkpoint: %+v", info)
	}
	if err := j2.WriteSnapshot(j2.ChainHead(), []byte(`{"at":13}`)); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
}

// TestTornTailMovePair exercises the rebalance durability order with real
// injected faults (satellite of the duplicate-not-lost guarantee): the
// MOVE_IN is acked durable, the paired MOVE_OUT is torn mid-write by an
// injected fault, and recovery must deliver the MOVE_IN while truncating the
// torn MOVE_OUT — the service is duplicated across shards, never lost.
func TestTornTailMovePair(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 3)
	opts := Options{Dir: dir, FS: inj, ChainInterval: 4}
	j := openFresh(t, opts)
	for _, r := range testRecords(8) {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	svc := testService(9.5)
	moveIn := &Record{Op: OpMoveIn, ID: 99, Node: 1, Gen: 5, TrueSvc: svc, EstSvc: svc}
	if err := j.Append(moveIn); err != nil {
		t.Fatal(err)
	}
	// The destination's MOVE_IN is on disk. Now the source's MOVE_OUT tears.
	inj.FailWrites(0, true)
	moveOut := &Record{Op: OpMoveOut, ID: 99, Gen: 5}
	if err := j.Append(moveOut); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn MOVE_OUT: %v, want injected fault", err)
	}
	j.Close()

	var ops []Op
	j2, info, err := Open(Options{Dir: dir, ChainInterval: 4}, func(r *Record) error {
		ops = append(ops, r.Op)
		return nil
	})
	if err != nil {
		t.Fatalf("recovery after torn MOVE_OUT: %v", err)
	}
	defer j2.Close()
	if info.LastSeq != 9 || ops[len(ops)-1] != OpMoveIn {
		t.Fatalf("recovery: LastSeq=%d lastOp=%v, want 9/MOVE_IN", info.LastSeq, ops[len(ops)-1])
	}
	for _, op := range ops {
		if op == OpMoveOut {
			t.Fatal("torn MOVE_OUT replayed")
		}
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("no torn tail truncated; the injected tear did not land")
	}
	// Recovery is idempotent from here: the retried MOVE_OUT lands cleanly.
	if err := j2.Append(moveOut); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncFaultFailsAck: an fsync fault on the commit path must surface as
// an append error (no ack), and the journal must refuse further work with
// the sticky fault rather than silently dropping durability.
func TestFsyncFaultFailsAck(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 5)
	opts := Options{Dir: dir, FS: inj, ChainInterval: 4}
	j := openFresh(t, opts)
	if err := j.Append(testRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(0)
	if err := j.Append(testRecords(2)[1]); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append over failed fsync acked: %v", err)
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("journal not sticky-failed: %v", err)
	}
	if err := j.Append(testRecords(3)[2]); err == nil {
		t.Fatal("failed journal accepted an append")
	}
	j.Close()
	_, info, j2 := replayAll(t, Options{Dir: dir, ChainInterval: 4})
	defer j2.Close()
	// Whether the unacked record's bytes survived is the OS's business; the
	// acked record must be there.
	if info.LastSeq < 1 {
		t.Fatalf("acked record lost: %+v", info)
	}
}
