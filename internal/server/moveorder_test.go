package server

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
)

// moveGateFS runs the store on the real filesystem, holds every WAL segment
// fsync that would make a MOVE_IN durable until the test opens its gate, and
// checks at every segment write that each MOVE_OUT's MOVE_IN had already
// been fsynced.
type moveGateFS struct {
	faultfs.OS
	held chan chan struct{} // a held fsync sends its gate here and waits for it to close

	mu      sync.Mutex
	synced  map[int]bool // service ids whose MOVE_IN is on stable storage
	outs    int          // MOVE_OUT frames written
	early   []int        // ids whose MOVE_OUT was written before their MOVE_IN was fsynced
	heldFor int          // fsyncs held on the gate
	bad     error        // first segment write that did not decode as whole frames
}

func (g *moveGateFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := g.OS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return &moveGateFile{File: f, g: g}, nil
}

type moveGateFile struct {
	faultfs.File
	g   *moveGateFS
	ins []int // MOVE_IN ids written since the last sync (under g.mu)
}

func (f *moveGateFile) Write(p []byte) (int, error) {
	g := f.g
	g.mu.Lock()
	// The committer writes whole frames, so every write decodes on its own.
	err := journal.DecodeFrames(p, func(r *journal.Record) error {
		switch r.Op {
		case journal.OpMoveIn:
			f.ins = append(f.ins, r.ID)
		case journal.OpMoveOut:
			g.outs++
			if !g.synced[r.ID] {
				g.early = append(g.early, r.ID)
			}
		}
		return nil
	})
	if err != nil && g.bad == nil {
		g.bad = err
	}
	g.mu.Unlock()
	return f.File.Write(p)
}

func (f *moveGateFile) Sync() error {
	g := f.g
	g.mu.Lock()
	ins := f.ins
	f.ins = nil
	g.mu.Unlock()
	if len(ins) > 0 {
		gate := make(chan struct{})
		g.held <- gate
		<-gate
	}
	err := f.File.Sync()
	g.mu.Lock()
	if len(ins) > 0 {
		g.heldFor++
	}
	for _, id := range ins {
		g.synced[id] = true
	}
	g.mu.Unlock()
	return err
}

// TestMoveInDurableBeforeMoveOut is the store-level half of the cross-WAL
// move discipline recovery rests on: under FsyncBatch, a rebalance move's
// MOVE_IN must be fsynced in the destination shard's WAL before its MOVE_OUT
// reaches the source shard's WAL at all. Each destination fsync that covers
// a MOVE_IN is held on a gate long enough for a premature MOVE_OUT to land;
// none may.
func TestMoveInDurableBeforeMoveOut(t *testing.T) {
	g := &moveGateFS{held: make(chan chan struct{}), synced: make(map[int]bool)}
	s, err := Open(t.TempDir(), testNodes(16, 71), &Options{Fsync: journal.FsyncBatch, SnapshotEvery: -1, Shards: 3, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	tape := opTape(160, 73)
	var live []int
	for i := range tape {
		if k := tape[i].kind; k != "realloc" && k != "repair" {
			applyOps(t, s, tape, i, i+1, &live)
			continue
		}
		// The epoch runs on its own goroutine so this one can hold and
		// release the destination fsyncs it triggers.
		var eerr error
		done := make(chan struct{})
		go func(budget int) {
			defer close(done)
			if budget > 0 {
				_, eerr = s.Repair(budget)
			} else {
				_, eerr = s.Reallocate()
			}
		}(tape[i].budget)
	wait:
		for {
			select {
			case gate := <-g.held:
				time.Sleep(20 * time.Millisecond)
				close(gate)
			case <-done:
				break wait
			}
		}
		if eerr != nil {
			t.Fatalf("op %d %s: %v", i, tape[i].kind, eerr)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if g.bad != nil {
		t.Fatalf("a segment write did not decode: %v", g.bad)
	}
	t.Logf("%d MOVE_OUT frames, %d MOVE_IN fsyncs held", g.outs, g.heldFor)
	if g.outs == 0 || g.heldFor == 0 {
		t.Fatalf("tape wrote %d MOVE_OUT frames and held %d fsyncs; the test is vacuous", g.outs, g.heldFor)
	}
	if len(g.early) > 0 {
		t.Fatalf("MOVE_OUT of services %v reached the source WAL before their MOVE_IN was fsynced", g.early)
	}
}
