package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
	"vmalloc/internal/testutil/faultinject"
)

// testdata/legacy-dir is a single-WAL journal directory written by the
// pre-sharding Store (removed in the PR that added this test) at commit
// 08ed6ff: testNodes(5, 29), opTape(48, 31) with an explicit checkpoint
// after op 30, FsyncNone, 1 KiB segments, then Kill — 44 records, snapshots
// at seq 0 and 29, a 15-record tail to replay. testdata/legacy-state.json is
// the state that store served just before the kill.

const legacyTail = 15 // records behind the newest legacy snapshot

// legacyCopy returns a scratch copy of the legacy fixture, the state bytes it
// must recover to, and the number of journal files a migration has to move.
func legacyCopy(t *testing.T) (dir string, want []byte, files int) {
	t.Helper()
	src := filepath.Join("testdata", "legacy-dir")
	dir = t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err = os.ReadFile(filepath.Join("testdata", "legacy-state.json"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, bytes.TrimSuffix(want, []byte{'\n'}), len(entries)
}

// wantRecovered checks what vmallocd's flag-conflict check sees: a recovered
// one-shard, five-node platform — before, during and after the migration.
func wantRecovered(t *testing.T, dir, when string) {
	t.Helper()
	rec, m, err := DirRecovered(dir)
	if err != nil || !rec || m == nil || m.Shards != 1 || len(m.Nodes) != 5 {
		t.Fatalf("%s: DirRecovered = (%v, %+v, %v), want a recovered one-shard manifest over 5 nodes", when, rec, m, err)
	}
	if d := DescribeDir(dir); !strings.Contains(d, "1 shards over 5 nodes") {
		t.Fatalf("%s: DescribeDir = %q", when, d)
	}
}

// wantMigratedLayout checks the directory is shards.json + shard-0/ with no
// journal file left at the top level.
func wantMigratedLayout(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("no manifest after migration: %v", err)
	}
	if !journal.DirHasJournal(ShardDir(dir, 0)) {
		t.Fatal("shard-0 holds no journal after migration")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "wal-") || strings.HasPrefix(n, "snap-") || n == "chain.json" {
			t.Fatalf("journal file %s left at the top level", n)
		}
	}
}

func legacyOpts(fsys faultfs.FS) *Options {
	return &Options{Fsync: journal.FsyncNone, SnapshotEvery: -1, FS: fsys}
}

// TestLegacyDirMigrates boots a copy of the legacy fixture: it must come up
// as shard 0 of a one-shard store serving the recorded bytes, leave the
// one-layout directory behind, and from then on recover like any other.
func TestLegacyDirMigrates(t *testing.T) {
	dir, want, _ := legacyCopy(t)
	wantRecovered(t, dir, "legacy")

	s, err := Open(dir, nil, legacyOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, s); !bytes.Equal(got, want) {
		t.Fatalf("migrated state differs from the fixture's:\n got  %s\n want %s", got, want)
	}
	if st := s.Stats(); st.Shards != 1 || st.Replayed != legacyTail {
		t.Fatalf("migrated boot: %d shards, %d replayed, want 1 and %d", st.Shards, st.Replayed, legacyTail)
	}
	wantMigratedLayout(t, dir)
	s.Kill()

	// The second boot is a plain recovery of the same bytes.
	wantRecovered(t, dir, "migrated")
	r, err := Open(dir, nil, legacyOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateJSON(t, r); !bytes.Equal(got, want) {
		t.Fatal("second boot of the migrated directory recovered different bytes")
	}
	if st := r.Stats(); st.Replayed != legacyTail {
		t.Fatalf("second boot replayed %d records, want %d", st.Replayed, legacyTail)
	}
	var live []int
	applyOps(t, r, opTape(20, 9), 0, 20, &live)

	// A legacy directory is one shard; asking for more is the usual
	// manifest conflict, not a re-shard.
	other, _, _ := legacyCopy(t)
	if _, err := Open(other, nil, &Options{Fsync: journal.FsyncNone, Shards: 2}); err == nil ||
		!strings.Contains(err.Error(), "conflicts with recovered manifest (1 shards)") {
		t.Fatalf("legacy directory opened over 2 shards: %v", err)
	}
	wantRecovered(t, other, "legacy after a refused boot")
}

// TestLegacyMigrationSurvivesFaults fails the n-th rename of the adoption
// for every n — the manifest's first, then one per journal file moved: each
// failed boot must leave a legacy or half-migrated directory that still
// describes itself and that the next, fault-free boot finishes migrating to
// the fixture's bytes.
func TestLegacyMigrationSurvivesFaults(t *testing.T) {
	for n := 0; ; n++ {
		dir, want, files := legacyCopy(t)
		inj := faultinject.NewInjector(nil, int64(n))
		inj.FailRenames(n)
		s, err := Open(dir, nil, legacyOpts(inj))
		if err == nil {
			// Every rename of the adoption went through before the fault
			// armed: the manifest's and one per journal file.
			s.Kill()
			if n != files+1 {
				t.Fatalf("migration finished after %d renames, fixture has a manifest and %d journal files", n, files)
			}
			return
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("rename fault %d: %v, want the injected fault", n, err)
		}
		wantRecovered(t, dir, "half-migrated")

		r, err := Open(dir, nil, legacyOpts(nil))
		if err != nil {
			t.Fatalf("boot after rename fault %d: %v", n, err)
		}
		if got := stateJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("boot after rename fault %d recovered different bytes", n)
		}
		wantMigratedLayout(t, dir)
		r.Kill()
	}
}

// TestDirRecoveredFreshAndBorn covers the two ends a legacy directory is not:
// an empty directory is not recovered, a default-booted one is — under a
// one-shard manifest.
func TestDirRecoveredFreshAndBorn(t *testing.T) {
	dir := t.TempDir()
	if rec, m, err := DirRecovered(dir); err != nil || rec || m != nil {
		t.Fatalf("empty dir: DirRecovered = (%v, %+v, %v)", rec, m, err)
	}
	s := openStore(t, dir, testNodes(4, 46), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, m, err := DirRecovered(dir)
	if err != nil || !rec || m == nil || m.Shards != 1 {
		t.Fatalf("DirRecovered = (%v, %+v, %v), want a one-shard manifest", rec, m, err)
	}
	if d := DescribeDir(dir); !strings.Contains(d, "1 shards over 4 nodes") {
		t.Fatalf("DescribeDir = %q", d)
	}
}
