package journal

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/testutil/faultinject"
)

// jsonSnapshots rejects snapshot bytes that are not valid JSON — the
// validator tests use to force recovery fallback to an older snapshot.
func jsonSnapshots(b []byte) error {
	if !json.Valid(b) {
		return errors.New("snapshot is not JSON")
	}
	return nil
}

// TestChainDeterministic: two journals fed identical records hold identical
// chain heads and identical checkpoint ledgers — the property replication
// comparison rests on.
func TestChainDeterministic(t *testing.T) {
	build := func() *Journal {
		j := openFresh(t, Options{Dir: t.TempDir(), ChainInterval: 4, Fsync: FsyncNone})
		for _, r := range testRecords(21) {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return j
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	ha, hb := a.ChainHead(), b.ChainHead()
	if ha != hb {
		t.Fatalf("chain heads diverge:\n a: %+v\n b: %+v", ha, hb)
	}
	if ha.Hash == ([32]byte{}) {
		t.Fatal("chain head is zero after 21 records")
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != 5 { // 4, 8, 12, 16, 20
		t.Fatalf("ledger has %d entries, want 5: %+v", len(ea), ea)
	}
	if MerkleRoot(ea) != MerkleRoot(eb) {
		t.Fatalf("ledger roots diverge:\n a: %+v\n b: %+v", ea, eb)
	}
	if _, diverged := CompareChains(ea, eb); diverged {
		t.Fatal("identical ledgers compare as diverged")
	}
	if ca, cb := a.CommittedHead(), b.CommittedHead(); ca != cb || ca != ha {
		t.Fatalf("committed heads: %+v vs %+v (head %+v)", ca, cb, ha)
	}
}

// TestChainContinuesAcrossRecovery: the chain head after reopen equals the
// head before close — seeded from the snapshot base, extended by replay.
func TestChainContinuesAcrossRecovery(t *testing.T) {
	opts := Options{Dir: t.TempDir(), ChainInterval: 4}
	j := openFresh(t, opts)
	recs := testRecords(20)
	for _, r := range recs[:10] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(j.ChainHead(), []byte(`{"at":10}`)); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[10:] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := j.ChainHead()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, j2 := replayAll(t, opts)
	defer j2.Close()
	if info.Replayed != 10 {
		t.Fatalf("replayed %d, want 10: %+v", info.Replayed, info)
	}
	if got := j2.ChainHead(); got != want {
		t.Fatalf("chain head after recovery %+v, want %+v", got, want)
	}
	if got := j2.CommittedHead(); got != want {
		t.Fatalf("committed head after recovery %+v, want %+v", got, want)
	}
}

// chainTamperDir builds a directory where recovery must replay records
// 11..20 under persisted checkpoints: snapshot at 10 and at 20, the newest
// snapshot corrupted so recovery falls back and verifies the ledger over the
// replayed range.
func chainTamperDir(t *testing.T) (opts Options, headAt20 ChainPoint) {
	t.Helper()
	opts = Options{Dir: t.TempDir(), ChainInterval: 4, ValidateSnapshot: jsonSnapshots}
	j := openFresh(t, opts)
	recs := testRecords(20)
	for _, r := range recs[:10] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(j.ChainHead(), []byte(`{"at":10}`)); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[10:] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	headAt20 = j.ChainHead()
	if err := j.WriteSnapshot(headAt20, []byte(`{"at":20}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot: recovery falls back to seq 10 and must
	// replay 11..20 under the ledger persisted by the second checkpoint.
	if err := os.WriteFile(snapshotPath(opts.Dir, 20), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	return opts, headAt20
}

// TestChainVerifiedOnReplay: the fallback replay verifies the persisted
// checkpoints (entries at 12, 16, 20 and the base at 20) and recovers.
func TestChainVerifiedOnReplay(t *testing.T) {
	opts, headAt20 := chainTamperDir(t)
	got, info, j := replayAll(t, opts)
	defer j.Close()
	if info.SnapshotSeq != 10 || info.SkippedSnapshots != 1 || len(got) != 10 {
		t.Fatalf("fallback recovery: %+v, %d records", info, len(got))
	}
	if info.VerifiedChain != 4 {
		t.Fatalf("verified %d checkpoints, want 4 (entries 12,16,20 + base 20)", info.VerifiedChain)
	}
	if j.ChainHead() != headAt20 {
		t.Fatalf("chain head %+v, want %+v", j.ChainHead(), headAt20)
	}
}

// TestChainDetectsCRCValidTampering is the attack the CRC cannot catch: a
// payload byte flipped and the frame CRC recomputed to match. The scanner
// accepts the frame; the chain must not.
func TestChainDetectsCRCValidTampering(t *testing.T) {
	opts, _ := chainTamperDir(t)
	// Find a frame in the replayed range (seq 11..20) whose record decodes
	// after mutation: a SetThreshold record's float byte is safe to flip.
	segs, _, err := listDir(faultfs.OS{}, opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := segmentPath(opts.Dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	var out []byte
	if _, err := scanFrames(data, func(payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return err
		}
		if !tampered && rec.Seq > 10 && rec.Op == OpSetThreshold {
			cp := *rec
			cp.Threshold += 1e-9 // the tampered decision still decodes
			forged := encodePayload(nil, &cp)
			for i := 0; i < 8; i++ {
				forged[i] = byte(rec.Seq >> (8 * i))
			}
			if len(forged) != len(payload) {
				t.Fatalf("forged payload %d bytes, original %d", len(forged), len(payload))
			}
			payload = forged
			tampered = true
		}
		out = appendFrame(out, payload) // recomputes the CRC: scanner-clean
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Fatal("no SetThreshold record above seq 10 to tamper with")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(opts, nil)
	if err == nil || !strings.Contains(err.Error(), "chain mismatch") {
		t.Fatalf("tampered log recovered: err = %v, want chain mismatch", err)
	}
}

// TestChainRefusesTruncatingDurableRecords: a last segment that ends before
// a persisted checkpoint (torn read, tampering-by-truncation) must fail
// recovery without truncating the file — re-reading it intact must succeed.
func TestChainRefusesTruncatingDurableRecords(t *testing.T) {
	opts, _ := chainTamperDir(t)
	segs, _, err := listDir(faultfs.OS{}, opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := segmentPath(opts.Dir, segs[0])
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A short read of the same bytes: the injector shortens the segment
	// read during replay without touching the file.
	inj := faultinject.NewInjector(nil, 11)
	short := opts
	short.FS = inj
	// Reads during open: chain.json, snap-20 (invalid), snap-10, segment.
	inj.ShortReads(3)
	_, _, err = Open(short, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing to truncate") {
		t.Fatalf("short-read recovery: err = %v, want refusal", err)
	}
	if got, _ := os.ReadFile(path); len(got) != len(intact) {
		t.Fatalf("segment truncated from %d to %d bytes by a failed recovery", len(intact), len(got))
	}

	// The same bytes through a clean filesystem still recover.
	j, info, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("intact reopen: %v", err)
	}
	defer j.Close()
	if info.LastSeq != 20 {
		t.Fatalf("LastSeq %d, want 20", info.LastSeq)
	}

	// Genuinely truncating the file below a checkpoint is the same refusal:
	// durable records are gone and recovery must say so, not shrug.
	j.Close()
	if err := os.Truncate(path, int64(len(intact)-1)); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(opts, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing to truncate") {
		t.Fatalf("truncated log recovered: err = %v", err)
	}
}

// TestCompareChainsLocalizesDivergence: two ledgers that fork at a known
// point are reported diverged at the first checkpoint after the fork, and
// pruned prefixes (asymmetric retention) do not count as divergence.
func TestCompareChainsLocalizesDivergence(t *testing.T) {
	mk := func(n int, forkAt uint64) []ChainPoint {
		var pts []ChainPoint
		var h [32]byte
		for i := 1; i <= n; i++ {
			seq := uint64(i * 4)
			payload := []byte{byte(i)}
			if forkAt != 0 && seq >= forkAt {
				payload = []byte{byte(i), 0xFF}
			}
			h = chainNext(h, payload)
			pts = append(pts, ChainPoint{Seq: seq, Hash: h})
		}
		return pts
	}
	honest := mk(16, 0)
	if at, diverged := CompareChains(honest, mk(16, 0)); diverged {
		t.Fatalf("identical ledgers diverged at %+v", at)
	}
	forked := mk(16, 36) // first divergent checkpoint at seq 36
	at, diverged := CompareChains(honest, forked)
	if !diverged || at.Seq != 36 {
		t.Fatalf("divergence at %+v (diverged=%v), want seq 36", at, diverged)
	}
	// One side pruned its prefix: comparison covers the overlap only.
	if at, diverged := CompareChains(honest[8:], mk(16, 0)); diverged {
		t.Fatalf("pruned prefix reported divergence at %+v", at)
	}
	at, diverged = CompareChains(honest[2:], forked)
	if !diverged || at.Seq != 36 {
		t.Fatalf("pruned+forked: divergence at %+v (diverged=%v), want seq 36", at, diverged)
	}
	// Disjoint ranges cannot be compared — not treated as divergence.
	if at, diverged := CompareChains(honest[:4], forked[12:]); diverged {
		t.Fatalf("disjoint ranges diverged at %+v", at)
	}
}

// TestChainPointJSON: hex round-trip and malformed-hash rejection.
func TestChainPointJSON(t *testing.T) {
	p := ChainPoint{Seq: 42}
	for i := range p.Hash {
		p.Hash[i] = byte(i)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got ChainPoint
	if err := json.Unmarshal(data, &got); err != nil || got != p {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for _, bad := range []string{
		`{"seq":1,"hash":"zz"}`,
		`{"seq":1,"hash":"abcd"}`,
		`{"seq":1,"hash":""}`,
	} {
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}
}
