package server

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/workload"
)

var updateRecoveryGolden = flag.Bool("recovery-golden.update", false, "rewrite the crash-recovery golden state file")

func testNodes(h int, seed int64) []vmalloc.Node {
	return workload.Platform(workload.Scenario{
		Hosts: h, COV: 0.4, Mode: workload.HeteroBoth, Seed: seed,
	}, rand.New(rand.NewSource(seed)))
}

// op is one entry of the deterministic operation tape: the tape is data, so
// interrupted and uninterrupted runs apply byte-identical inputs.
type op struct {
	kind      string // add, remove, update, threshold, realloc, repair
	trueSvc   vmalloc.Service
	estSvc    vmalloc.Service
	pick      int // live-set index for remove/update
	needs     [4]vmalloc.Vec
	threshold float64
	budget    int
}

func opTape(n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	svc := func() vmalloc.Service {
		req := vmalloc.Of(0.05+0.1*rng.Float64(), 0.05+0.1*rng.Float64())
		need := vmalloc.Of(0.1+0.3*rng.Float64(), 0.05*rng.Float64())
		return vmalloc.Service{
			ReqElem: req.Clone(), ReqAgg: req.Clone(),
			NeedElem: need.Clone(), NeedAgg: need.Clone(),
		}
	}
	tape := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%10 == 9:
			tape = append(tape, op{kind: "realloc"})
		case i%25 == 24:
			tape = append(tape, op{kind: "repair", budget: 2})
		case i%17 == 16:
			tape = append(tape, op{kind: "threshold", threshold: 0.1 + 0.2*rng.Float64()})
		default:
			switch k := rng.Intn(10); {
			case k < 6:
				t := svc()
				e := t
				e.NeedAgg = t.NeedAgg.Scale(1 + 0.3*(rng.Float64()-0.5))
				tape = append(tape, op{kind: "add", trueSvc: t, estSvc: e})
			case k < 8:
				tape = append(tape, op{kind: "remove", pick: rng.Int()})
			default:
				nv := vmalloc.Of(0.1+0.3*rng.Float64(), 0.05*rng.Float64())
				tape = append(tape, op{kind: "update", pick: rng.Int(),
					needs: [4]vmalloc.Vec{nv.Clone(), nv.Clone(), nv.Clone(), nv.Clone()}})
			}
		}
	}
	return tape
}

// applyOps drives tape[from:to] against the store, maintaining the live-id
// set (which evolves identically across runs because every decision is
// deterministic).
func applyOps(t *testing.T, s *Store, tape []op, from, to int, live *[]int) {
	t.Helper()
	for i := from; i < to; i++ {
		o := &tape[i]
		switch o.kind {
		case "add":
			id, _, err := s.AddWithEstimate(o.trueSvc, o.estSvc)
			if err == nil {
				*live = append(*live, id)
			} else if err != ErrRejected {
				t.Fatalf("op %d add: %v", i, err)
			}
		case "remove":
			if len(*live) == 0 {
				continue
			}
			idx := o.pick % len(*live)
			id := (*live)[idx]
			ok, err := s.Remove(id)
			if err != nil || !ok {
				t.Fatalf("op %d remove %d: ok=%v err=%v", i, id, ok, err)
			}
			*live = append((*live)[:idx], (*live)[idx+1:]...)
		case "update":
			if len(*live) == 0 {
				continue
			}
			id := (*live)[o.pick%len(*live)]
			if err := s.UpdateNeeds(id, o.needs[0], o.needs[1], o.needs[2], o.needs[3]); err != nil {
				t.Fatalf("op %d update %d: %v", i, id, err)
			}
		case "threshold":
			if err := s.SetThreshold(context.Background(), o.threshold); err != nil {
				t.Fatalf("op %d threshold: %v", i, err)
			}
		case "realloc":
			if _, err := s.Reallocate(); err != nil {
				t.Fatalf("op %d realloc: %v", i, err)
			}
		case "repair":
			if _, err := s.Repair(o.budget); err != nil {
				t.Fatalf("op %d repair: %v", i, err)
			}
		}
	}
}

// openStore opens (or recovers) a store with fsync off; shards 0 leaves the
// count to the default on first boot and to the manifest afterwards.
func openStore(t *testing.T, dir string, nodes []vmalloc.Node, shards int) *Store {
	t.Helper()
	s, err := Open(dir, nodes, &Options{Fsync: journal.FsyncNone, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forEachK runs fn as a subtest per shard count: layout-independent store
// behaviour must hold for one placement domain and for several alike.
func forEachK(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func stateJSON(t *testing.T, s *Store) []byte {
	t.Helper()
	_, data, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreCleanReopen checks Close-then-Open round-trips the merged state
// bit for bit with zero replay (the close-time checkpoint covers the log),
// keeps per-shard stats consistent, and leaves a store that keeps working.
func TestStoreCleanReopen(t *testing.T) {
	for _, tc := range []struct {
		shards, hosts int
		nodeSeed      int64
		ops           int
		tapeSeed      int64
	}{
		{shards: 1, hosts: 6, nodeSeed: 41, ops: 60, tapeSeed: 7},
		{shards: 2, hosts: 8, nodeSeed: 43, ops: 120, tapeSeed: 44},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, testNodes(tc.hosts, tc.nodeSeed), tc.shards)
			tape := opTape(tc.ops, tc.tapeSeed)
			var live []int
			applyOps(t, s, tape, 0, len(tape), &live)
			want := append([]byte(nil), stateJSON(t, s)...)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			r := openStore(t, dir, nil, 0) // platform and K come from the manifest
			defer r.Close()
			if got := stateJSON(t, r); !bytes.Equal(got, want) {
				t.Fatalf("state changed across clean reopen:\n got  %s\n want %s", got, want)
			}
			if st := r.Stats(); st.Replayed != 0 || st.Shards != tc.shards {
				t.Fatalf("clean reopen: replayed %d records over %d shards, want 0 over %d (checkpoint at close should cover all)",
					st.Replayed, st.Shards, tc.shards)
			}
			stats, err := r.ShardStats()
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, st := range stats {
				total += st.Services
			}
			if total != r.Stats().Services {
				t.Fatalf("shard stats count %d, store has %d", total, r.Stats().Services)
			}
			// The store keeps working after recovery.
			var live2 []int
			applyOps(t, r, opTape(10, 8), 0, 10, &live2)
		})
	}
}

// TestStoreKillRecovery is the crash acceptance test: a store is killed
// without a final checkpoint (the kill -9 analog), reopened, and must recover
// the exact pre-crash merged state from per-shard WAL replay — then keep
// serving.
func TestStoreKillRecovery(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		tape := opTape(160, 42)
		var live []int

		s := openStore(t, dir, testNodes(8, 41), shards)
		applyOps(t, s, tape, 0, 120, &live)
		want := append([]byte(nil), stateJSON(t, s)...)
		wantStats := s.Stats()
		s.Kill()

		r := openStore(t, dir, nil, 0) // recovered boot: platform and K from the manifest
		defer r.Close()
		if len(r.RecoveryWarnings) != 0 {
			t.Fatalf("clean-tape kill produced recovery warnings: %v", r.RecoveryWarnings)
		}
		if got := stateJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("recovered state differs from pre-kill state:\npre:  %s\npost: %s", want, got)
		}
		rstats := r.Stats()
		if rstats.Services != wantStats.Services {
			t.Fatalf("recovered %d services, want %d", rstats.Services, wantStats.Services)
		}
		if rstats.Shards != shards {
			t.Fatalf("recovered %d shards, want %d", rstats.Shards, shards)
		}
		if rstats.Replayed == 0 {
			t.Fatal("kill -9 recovery replayed no records; the WAL tail was lost")
		}
		// The recovered store must keep serving the rest of the tape.
		applyOps(t, r, tape, 120, len(tape), &live)
		if _, err := r.Reallocate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashRecoveryGolden is the acceptance test of the durable tier: a
// fixed-seed run is killed mid-epoch (the epoch record is torn off the WAL
// tail mid-write), recovered from snapshot + replay, and the recovered
// trajectory must be bit-identical — both at the crash point and after
// finishing the run — to the uninterrupted one. The final state is pinned
// in a golden file so cross-version drift in any layer (solver, engine,
// journal, serialization) surfaces here.
func TestCrashRecoveryGolden(t *testing.T) {
	nodes := testNodes(8, 17)
	tape := opTape(120, 23)
	// Crash at an epoch boundary mid-tape: the epoch op at crashAt was "in
	// flight" when the process died — its record is the torn tail.
	crashAt := -1
	for i := 60; i < len(tape); i++ {
		if tape[i].kind == "realloc" {
			crashAt = i
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("tape has no epoch op after index 60")
	}
	opts := func() *Options {
		return &Options{Fsync: journal.FsyncNone, SnapshotEvery: 32, SegmentBytes: 16 << 10}
	}

	// Uninterrupted reference run, capturing the state at the crash point.
	dirA := t.TempDir()
	a, err := Open(dirA, nodes, opts())
	if err != nil {
		t.Fatal(err)
	}
	var liveA []int
	applyOps(t, a, tape, 0, crashAt, &liveA)
	wantAtCrash := append([]byte(nil), stateJSON(t, a)...)
	applyOps(t, a, tape, crashAt, len(tape), &liveA)
	wantFinal := append([]byte(nil), stateJSON(t, a)...)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: same prefix, then a kill mid-epoch-append.
	dirB := t.TempDir()
	b, err := Open(dirB, nodes, opts())
	if err != nil {
		t.Fatal(err)
	}
	var liveB []int
	applyOps(t, b, tape, 0, crashAt, &liveB)
	b.Kill()
	tearLastSegment(t, ShardDir(dirB, 0))

	// Recover and check bit-identity at the crash point.
	b2, err := Open(dirB, nil, opts())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := b2.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatal("recovery did not truncate the torn epoch record")
	}
	if got := stateJSON(t, b2); !bytes.Equal(got, wantAtCrash) {
		t.Fatalf("recovered state differs from uninterrupted state at crash point:\n got  %s\n want %s", got, wantAtCrash)
	}

	// Finish the run on the recovered store: still bit-identical.
	applyOps(t, b2, tape, crashAt, len(tape), &liveB)
	gotFinal := stateJSON(t, b2)
	if !bytes.Equal(gotFinal, wantFinal) {
		t.Fatalf("post-recovery trajectory diverged:\n got  %s\n want %s", gotFinal, wantFinal)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}

	// Pin the trajectory against the golden file.
	golden := filepath.Join("testdata", "recovery_golden.json")
	if *updateRecoveryGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(gotFinal, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -recovery-golden.update): %v", err)
	}
	if !bytes.Equal(bytes.TrimSuffix(want, []byte{'\n'}), gotFinal) {
		t.Fatal("final state drifted from the recovery golden file")
	}
}

// tearLastSegment simulates a kill mid-append: a prefix of a valid-looking
// record lands on the WAL tail without its full frame.
func tearLastSegment(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment to tear")
	}
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Half a frame header plus garbage: unmistakably torn.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	nodes := testNodes(4, 5)
	opts := &Options{Fsync: journal.FsyncNone, SnapshotEvery: 8, SegmentBytes: 4 << 10}
	s, err := Open(dir, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	tape := opTape(80, 3)
	var live []int
	applyOps(t, s, tape, 0, len(tape), &live)
	stats := s.Stats()
	if stats.Snapshots < 2 {
		t.Fatalf("expected automatic checkpoints, got %d", stats.Snapshots)
	}
	s.Kill() // skip the close-time checkpoint so reopen has a tail to replay

	s2, err := Open(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2 := s2.Stats()
	if st2.Replayed >= int(stats.Records) {
		t.Fatalf("compaction ineffective: replayed %d of %d records", st2.Replayed, stats.Records)
	}
	if st2.Services != stats.Services {
		t.Fatalf("service count %d after recovery, want %d", st2.Services, stats.Services)
	}
	// Snapshot retention bounded the directory.
	count := 0
	entries, err := os.ReadDir(ShardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			count++
		}
	}
	if count == 0 || count > 3 { // 2 kept + possibly one fresh from this boot
		t.Fatalf("%d snapshots retained, want 1..3", count)
	}
}

func TestOpenFreshNeedsNodes(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, nil); err == nil {
		t.Fatal("fresh open without nodes succeeded")
	}
}

func TestOpenFromInitialState(t *testing.T) {
	// Build a state with the CLI-style path, then boot a daemon dir from it.
	nodes := testNodes(3, 9)
	c, err := vmalloc.NewCluster(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := vmalloc.Service{
		ReqElem: vmalloc.Of(0.1, 0.1), ReqAgg: vmalloc.Of(0.1, 0.1),
		NeedElem: vmalloc.Of(0.2, 0), NeedAgg: vmalloc.Of(0.2, 0),
	}
	id, ok, err := c.Add(svc)
	if err != nil || !ok {
		t.Fatalf("seed add: ok=%v err=%v", ok, err)
	}
	st := c.State()

	s, err := Open(t.TempDir(), nil, &Options{Fsync: journal.FsyncNone, InitialState: st})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, _, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Services) != 1 || got.Services[0].ID != id {
		t.Fatalf("initial state not loaded: %+v", got.Services)
	}

	// A merged state is a shard's state only when there is one shard.
	_, err = Open(t.TempDir(), nil, &Options{Fsync: journal.FsyncNone, InitialState: st, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "-state-in") {
		t.Fatalf("initial state over 2 shards: %v, want the -state-in rejection", err)
	}
}

func TestStoreStatsCounters(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		s := openStore(t, t.TempDir(), testNodes(4, 1), shards)
		defer s.Close()
		svc := vmalloc.Service{
			ReqElem: vmalloc.Of(0.1, 0.1), ReqAgg: vmalloc.Of(0.1, 0.1),
			NeedElem: vmalloc.Of(0.2, 0), NeedAgg: vmalloc.Of(0.2, 0),
		}
		id, _, err := s.Add(svc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reallocate(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
		// An impossible service is rejected but not journaled.
		big := svc
		big.ReqElem = vmalloc.Of(1e6, 1e6)
		big.ReqAgg = vmalloc.Of(1e6, 1e6)
		if _, _, err := s.Add(big); err != ErrRejected {
			t.Fatalf("want ErrRejected, got %v", err)
		}
		st := s.Stats()
		if st.Adds != 1 || st.Removes != 1 || st.Epochs != 1 || st.Rejected != 1 {
			t.Fatalf("counters: %+v", st)
		}
		if st.Records != 3 { // add + epoch + remove; the rejection wrote nothing
			t.Fatalf("journaled %d records, want 3", st.Records)
		}
		if st.Services != 0 {
			t.Fatalf("services %d, want 0", st.Services)
		}
	})
}

func TestMutationsFailAfterClose(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		s := openStore(t, t.TempDir(), testNodes(3, 1), shards)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		svc := vmalloc.Service{
			ReqElem: vmalloc.Of(0.1, 0.1), ReqAgg: vmalloc.Of(0.1, 0.1),
			NeedElem: vmalloc.Of(0.1, 0), NeedAgg: vmalloc.Of(0.1, 0),
		}
		if _, _, err := s.Add(svc); err != ErrClosed {
			t.Fatalf("Add after close: %v", err)
		}
		if _, err := s.Reallocate(); err != ErrClosed {
			t.Fatalf("Reallocate after close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestStateSharedAcrossReads(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		s := openStore(t, t.TempDir(), testNodes(3, 1), shards)
		defer s.Close()
		_, d1, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		_, d2, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		if &d1[0] != &d2[0] {
			t.Fatal("published state not reused between mutations")
		}
		svc := vmalloc.Service{
			ReqElem: vmalloc.Of(0.1, 0.1), ReqAgg: vmalloc.Of(0.1, 0.1),
			NeedElem: vmalloc.Of(0.1, 0), NeedAgg: vmalloc.Of(0.1, 0),
		}
		if _, _, err := s.Add(svc); err != nil {
			t.Fatal(err)
		}
		_, d3, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(d1, d3) {
			t.Fatal("published state not refreshed after mutation")
		}
	})
}

func BenchmarkStoreAdd(b *testing.B) {
	s, err := Open(b.TempDir(), testNodes(16, 1), &Options{Fsync: journal.FsyncNone, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	svc := vmalloc.Service{
		ReqElem: vmalloc.Of(1e-6, 1e-6), ReqAgg: vmalloc.Of(1e-6, 1e-6),
		NeedElem: vmalloc.Of(1e-6, 0), NeedAgg: vmalloc.Of(1e-6, 0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Add(svc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStoreRejectsInvalidThresholdAndServesNoStateAfterClose(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		s := openStore(t, t.TempDir(), testNodes(3, 1), shards)
		if err := s.SetThreshold(context.Background(), -1); !errors.Is(err, ErrInvalid) {
			t.Fatalf("negative threshold: %v, want ErrInvalid", err)
		}
		if err := s.SetThreshold(context.Background(), math.NaN()); !errors.Is(err, ErrInvalid) {
			t.Fatalf("NaN threshold: %v, want ErrInvalid", err)
		}
		// The rejected thresholds journaled nothing; snapshots stay valid.
		if st := s.Stats(); st.Records != 0 {
			t.Fatalf("invalid thresholds journaled %d records", st.Records)
		}
		// Warm the read cache, close, and demand ErrClosed on the fast path.
		if _, _, err := s.State(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.State(); !errors.Is(err, ErrClosed) {
			t.Fatalf("State after Close: %v, want ErrClosed", err)
		}
	})
}
