// Package faultinject is a deterministic fault injector over the faultfs
// seam: it can fail, tear, or shorten individual writes, fsyncs, renames and
// reads on command. Only tests import it.
//
// The injector exists to make crash-safety claims testable. "A record is
// never acknowledged and then lost" is only believable when the fsync that
// was supposed to make it durable actually fails in a test and the
// acknowledgement provably does not happen. Injection is deterministic:
// faults fire by operation count (the Nth write, the Nth fsync) or by a
// seeded PRNG, so a failing torture run reproduces from its seed.
package faultinject

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"

	"vmalloc/internal/faultfs"
)

// ErrInjected marks every fault the injector fires; errors.Is(err, ErrInjected)
// distinguishes injected faults from real I/O failures in assertions.
var ErrInjected = errors.New("faultinject: injected fault")

// Op names a faultable operation kind.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpRename
	OpRead
	numOps
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRead:
		return "read"
	}
	return "unknown"
}

// arm is the per-op trigger state: fire after `after` more successful
// operations (-1 = disarmed), or fire each op with probability p.
type arm struct {
	after int // countdown; -1 disarmed, 0 means fire now
	p     float64
}

func (a *arm) fire(rng *rand.Rand) bool {
	if a.after >= 0 {
		if a.after == 0 {
			return true
		}
		a.after--
		return false
	}
	return a.p > 0 && rng.Float64() < a.p
}

// Counts is a point-in-time snapshot of operations seen and faults fired,
// indexed by Op.
type Counts struct {
	Ops      [numOps]uint64
	Injected [numOps]uint64
}

// Injector wraps an inner FS (faultfs.OS when nil) and fires faults on write,
// fsync, rename, and read according to its arming. All methods are safe for
// concurrent use; determinism holds for any serialized operation order.
type Injector struct {
	inner faultfs.FS

	mu     sync.Mutex
	rng    *rand.Rand
	arms   [numOps]arm
	torn   bool // failed writes land a PRNG-sized prefix first
	counts Counts
}

// NewInjector returns an injector over inner (OS when nil) with every fault
// disarmed. seed drives torn-write prefix sizes and probabilistic arming.
func NewInjector(inner faultfs.FS, seed int64) *Injector {
	if inner == nil {
		inner = faultfs.OS{}
	}
	inj := &Injector{inner: inner, rng: rand.New(rand.NewSource(seed))}
	for i := range inj.arms {
		inj.arms[i].after = -1
	}
	return inj
}

// FailWrites arms write faults: the next `after` writes succeed, every write
// from then on fails. torn selects whether a failing write first lands a
// random prefix of the buffer (a torn write) or writes nothing.
func (i *Injector) FailWrites(after int, torn bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arms[OpWrite] = arm{after: after}
	i.torn = torn
}

// FailSyncs arms fsync faults after `after` more successful syncs.
func (i *Injector) FailSyncs(after int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arms[OpSync] = arm{after: after}
}

// FailRenames arms rename faults after `after` more successful renames.
func (i *Injector) FailRenames(after int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arms[OpRename] = arm{after: after}
}

// ShortReads arms read faults after `after` more successful whole-file reads:
// ReadFile then returns a PRNG-chosen strict prefix of the content (and File
// reads fail), simulating a torn read of a file another node wrote.
func (i *Injector) ShortReads(after int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arms[OpRead] = arm{after: after}
}

// Torture arms every faultable operation probabilistically: each write fails
// (torn) with probability pWrite, each fsync with pSync, each rename with
// pRename. Deterministic given the injector seed and a serialized op order.
func (i *Injector) Torture(pWrite, pSync, pRename float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arms[OpWrite] = arm{after: -1, p: pWrite}
	i.arms[OpSync] = arm{after: -1, p: pSync}
	i.arms[OpRename] = arm{after: -1, p: pRename}
	i.torn = true
}

// Disarm clears every armed fault; the injector becomes a passthrough.
func (i *Injector) Disarm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	for k := range i.arms {
		i.arms[k] = arm{after: -1}
	}
	i.torn = false
}

// Counts returns operations seen and faults fired so far.
func (i *Injector) Counts() Counts {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts
}

// decide records one operation of kind op and reports whether it must fail.
// For writes it also returns the torn-prefix length (0..n-1) to land first.
func (i *Injector) decide(op Op, n int) (fail bool, torn int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.counts.Ops[op]++
	if !i.arms[op].fire(i.rng) {
		return false, 0
	}
	i.counts.Injected[op]++
	if op == OpWrite && i.torn && n > 0 {
		torn = i.rng.Intn(n)
	}
	if op == OpRead && n > 0 {
		torn = i.rng.Intn(n)
	}
	return true, torn
}

func injErr(op Op, name string) error {
	return fmt.Errorf("%w: %s %s", ErrInjected, op, name)
}

func (i *Injector) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, i: i, name: name}, nil
}

func (i *Injector) Open(name string) (faultfs.File, error) {
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, i: i, name: name}, nil
}

func (i *Injector) ReadFile(name string) ([]byte, error) {
	data, err := i.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if fail, short := i.decide(OpRead, len(data)); fail {
		return data[:short], nil
	}
	return data, nil
}

func (i *Injector) ReadDir(name string) ([]fs.DirEntry, error) { return i.inner.ReadDir(name) }
func (i *Injector) MkdirAll(name string, perm fs.FileMode) error {
	return i.inner.MkdirAll(name, perm)
}

func (i *Injector) Rename(oldname, newname string) error {
	if fail, _ := i.decide(OpRename, 0); fail {
		return injErr(OpRename, newname)
	}
	return i.inner.Rename(oldname, newname)
}

func (i *Injector) Remove(name string) error               { return i.inner.Remove(name) }
func (i *Injector) Truncate(name string, size int64) error { return i.inner.Truncate(name, size) }

// injFile threads a file's write/sync/read path back through the injector.
type injFile struct {
	f    faultfs.File
	i    *Injector
	name string
}

func (f *injFile) Write(b []byte) (int, error) {
	if fail, torn := f.i.decide(OpWrite, len(b)); fail {
		if torn > 0 {
			// A torn write: part of the buffer reaches the file before the
			// failure, exactly like a crash mid-write.
			n, err := f.f.Write(b[:torn])
			if err != nil {
				return n, err
			}
		}
		return torn, injErr(OpWrite, f.name)
	}
	return f.f.Write(b)
}

func (f *injFile) Sync() error {
	if fail, _ := f.i.decide(OpSync, 0); fail {
		return injErr(OpSync, f.name)
	}
	return f.f.Sync() //vmalloc:nondet-ok injection seam must forward the journal-issued fsync to the real file
}

func (f *injFile) Read(b []byte) (int, error) {
	if fail, _ := f.i.decide(OpRead, len(b)); fail {
		return 0, injErr(OpRead, f.name)
	}
	return f.f.Read(b)
}

func (f *injFile) Close() error                                 { return f.f.Close() }
func (f *injFile) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }
