package server

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/journal"
)

var updateWALGolden = flag.Bool("wal-golden.update", false, "rewrite testdata/wal_bytes.golden from the current store")

// TestWALBytesGolden pins what the store writes, byte for byte: a fixed tape
// of single adds, one bulk AddBatch, removes, need updates, threshold
// changes, reallocations and repairs runs at K = 1, 3 and 4 shards, the store
// is closed, and the SHA-256 of every file in the data directory — manifest,
// WAL segments, snapshots, chain ledgers — must repeat
// testdata/wal_bytes.golden. At K > 1 the tape must move at least one
// service across shards, so the MOVE_IN/MOVE_OUT pairs are pinned too.
// -wal-golden.update rewrites the file.
func TestWALBytesGolden(t *testing.T) {
	var lines []string
	for _, k := range []int{1, 3, 4} {
		dir := t.TempDir()
		s, err := Open(dir, testNodes(16, 71), &Options{Fsync: journal.FsyncNone, SnapshotEvery: -1, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		tape := opTape(160, 73)
		var live []int
		applyOps(t, s, tape, 0, 40, &live)
		// The bulk admission re-admits the descriptors of the prefix's adds.
		var specs []AddSpec
		for _, o := range tape[:40] {
			if o.kind == "add" {
				specs = append(specs, AddSpec{True: o.trueSvc, Est: o.estSvc})
			}
		}
		outs, err := s.AddBatch(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err == nil {
				live = append(live, o.ID)
			}
		}
		applyOps(t, s, tape, 40, len(tape), &live)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		moves := 0
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			lines = append(lines, fmt.Sprintf("shards=%d %s %x", k, filepath.ToSlash(rel), sha256.Sum256(data)))
			if strings.HasPrefix(d.Name(), "wal-") {
				return journal.DecodeFrames(data, func(r *journal.Record) error {
					if r.Op == journal.OpMoveIn {
						moves++
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if k > 1 && moves == 0 {
			t.Fatalf("shards=%d: the tape moved no service across shards", k)
		}
		t.Logf("shards=%d: %d cross-shard moves", k, moves)
	}
	golden := filepath.Join("testdata", "wal_bytes.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateWALGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -wal-golden.update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("data directory bytes diverged:\n got\n%s want\n%s", got, want)
	}
}
