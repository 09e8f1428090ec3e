package server

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
	"vmalloc/internal/testutil/faultinject"
)

// TestManifestSyncFaultFailsOpen: an fsync fault on the manifest fails the
// first boot before the manifest is renamed into place, so the directory is
// still fresh and the next boot bootstraps it.
func TestManifestSyncFaultFailsOpen(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 1)
	inj.FailSyncs(0) // the manifest's fsync is the first of a fresh boot
	_, err := Open(dir, testNodes(4, 61), &Options{Fsync: journal.FsyncNone, Shards: 2, FS: inj})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Open under a manifest fsync fault: %v, want the injected fault", err)
	}
	for _, name := range []string{manifestName, manifestName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s left behind after the failed boot: %v", name, err)
		}
	}
	if rec, _, err := DirRecovered(dir); rec || err != nil {
		t.Fatalf("failed first boot left a recovered directory: %v %v", rec, err)
	}
	s := openStore(t, dir, testNodes(4, 61), 2)
	if got := s.Stats().Shards; got != 2 {
		t.Fatalf("boot after the fault: %d shards, want 2", got)
	}
	s.Close()
}

// recordingFS logs the operations that order durability — file fsyncs and
// renames, by base name — over the real filesystem.
type recordingFS struct {
	faultfs.OS
	mu  sync.Mutex
	ops []string
}

func (r *recordingFS) log(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recordingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := r.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r, name: filepath.Base(name)}, nil
}

func (r *recordingFS) Rename(oldname, newname string) error {
	r.log("rename " + filepath.Base(oldname) + " " + filepath.Base(newname))
	return r.OS.Rename(oldname, newname)
}

type recordingFile struct {
	faultfs.File
	fs   *recordingFS
	name string
}

func (f *recordingFile) Sync() error {
	f.fs.log("sync " + f.name)
	return f.File.Sync()
}

// TestManifestSyncedBeforeRename: the manifest goes through the FS seam and
// its bytes are fsynced before the rename publishes them.
func TestManifestSyncedBeforeRename(t *testing.T) {
	rfs := &recordingFS{}
	s, err := Open(t.TempDir(), testNodes(4, 62), &Options{Fsync: journal.FsyncNone, Shards: 2, FS: rfs})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	synced, renamed := -1, -1
	for i, op := range rfs.ops {
		switch op {
		case "sync " + manifestName + ".tmp":
			synced = i
		case "rename " + manifestName + ".tmp " + manifestName:
			renamed = i
		}
	}
	if synced < 0 || renamed < 0 || synced > renamed {
		t.Fatalf("manifest sync at op %d, rename at op %d, want the sync first: %v", synced, renamed, rfs.ops)
	}
}

// TestEachShardLowestError: every shard runs even when some fail, and the
// error reported is the lowest-numbered shard's.
func TestEachShardLowestError(t *testing.T) {
	var ran [5]bool
	err := eachShard(len(ran), func(i int) error {
		ran[i] = true
		if i == 1 || i == 3 {
			return fmt.Errorf("shard %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "shard 1 failed" {
		t.Fatalf("eachShard = %v, want shard 1's error", err)
	}
	if ran != [5]bool{true, true, true, true, true} {
		t.Fatalf("shards run: %v", ran)
	}
}

// TestOpenReportsLowestFailingShard: when several shards cannot recover, the
// concurrent recovery reports the lowest-numbered one, as the sequential
// one did.
func TestOpenReportsLowestFailingShard(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testNodes(8, 63), 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{3, 1} {
		snaps, err := filepath.Glob(filepath.Join(ShardDir(dir, shard), "snap-*.json"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("shard %d snapshots: %v %v", shard, snaps, err)
		}
		for _, p := range snaps {
			if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 5 {
		_, err := Open(dir, nil, &Options{Fsync: journal.FsyncNone})
		if err == nil || !strings.Contains(err.Error(), "shard 1:") {
			t.Fatalf("Open with shards 1 and 3 unrecoverable: %v, want shard 1's error", err)
		}
	}
}

// TestConcurrentCheckpointsAcrossShards runs checkpoints — each writing its
// shards' snapshots concurrently — from several goroutines while others
// admit and remove, then reopens the directory: the recovered state is the
// state at Close, byte for byte.
func TestConcurrentCheckpointsAcrossShards(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testNodes(8, 64), &Options{Fsync: journal.FsyncNone, Shards: 4, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 3 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range 40 {
				id, _, err := s.Add(smallService(0.001 + float64(w*40+i)*1e-5))
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := s.Remove(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range 10 {
				if _, err := s.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := append([]byte(nil), stateJSON(t, s)...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, nil, &Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateJSON(t, r); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the state at Close")
	}
}
