// The injector's tests run here, over this package's OS passthrough; the
// injector itself lives in internal/testutil/faultinject so that production
// binaries do not link it.
package faultfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/testutil/faultinject"
)

func openRW(t *testing.T, fsys faultfs.FS, path string) faultfs.File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOSPassthrough: the OS implementation behaves like the os package for
// the full surface the journal uses.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fsys faultfs.FS = faultfs.OS{}
	if err := fsys.MkdirAll(filepath.Join(dir, "a/b"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a/b/f")
	f := openRW(t, fsys, path)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := fsys.ReadFile(path); err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	moved := filepath.Join(dir, "a/b/g")
	if err := fsys.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Truncate(moved, 2); err != nil {
		t.Fatal(err)
	}
	if data, _ := fsys.ReadFile(moved); string(data) != "he" {
		t.Fatalf("after truncate: %q", data)
	}
	entries, err := fsys.ReadDir(filepath.Join(dir, "a/b"))
	if err != nil || len(entries) != 1 || entries[0].Name() != "g" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if err := fsys.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.ReadFile(moved); !os.IsNotExist(err) {
		t.Fatalf("want not-exist after remove, got %v", err)
	}
}

// TestInjectWriteCountdown: the first `after` writes succeed, then every
// write fails with ErrInjected and (untorn) leaves the file unchanged.
func TestInjectWriteCountdown(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 1)
	inj.FailWrites(2, false)
	f := openRW(t, inj, filepath.Join(dir, "f"))
	defer f.Close()
	for k := 0; k < 2; k++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("third write: %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faults must be sticky, got %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil || string(data) != "okok" {
		t.Fatalf("file = %q, %v; failed writes must not land bytes", data, err)
	}
	c := inj.Counts()
	if c.Ops[faultinject.OpWrite] != 4 || c.Injected[faultinject.OpWrite] != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

// TestInjectTornWrite: a torn write lands a strict prefix and still errors —
// the caller sees failure, the file sees garbage, exactly like a crash
// mid-write.
func TestInjectTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 42)
	inj.FailWrites(0, true)
	f := openRW(t, inj, filepath.Join(dir, "f"))
	defer f.Close()
	payload := []byte("0123456789abcdef0123456789abcdef")
	n, err := f.Write(payload)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n >= len(payload) {
		t.Fatalf("torn write reported %d of %d bytes", n, len(payload))
	}
	data, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(data) != n || string(data) != string(payload[:n]) {
		t.Fatalf("file holds %q, reported prefix %d", data, n)
	}
}

// TestInjectTornWriteDeterministic: the same seed tears at the same offset.
func TestInjectTornWriteDeterministic(t *testing.T) {
	tear := func() int {
		dir := t.TempDir()
		inj := faultinject.NewInjector(nil, 7)
		inj.FailWrites(0, true)
		f := openRW(t, inj, filepath.Join(dir, "f"))
		defer f.Close()
		n, _ := f.Write(make([]byte, 1024))
		return n
	}
	if a, b := tear(), tear(); a != b {
		t.Fatalf("same seed tore at %d then %d", a, b)
	}
}

// TestInjectSyncAndRename: fsync and rename faults fire on countdown.
func TestInjectSyncAndRename(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewInjector(nil, 1)
	inj.FailSyncs(1)
	f := openRW(t, inj, filepath.Join(dir, "f"))
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second sync: %v, want ErrInjected", err)
	}

	inj.FailRenames(0)
	if err := inj.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("rename: %v, want ErrInjected", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "f")); err != nil {
		t.Fatalf("failed rename must leave the source: %v", err)
	}
}

// TestInjectShortRead: an armed ReadFile returns a strict prefix without an
// error — the caller must detect truncation itself (the journal does, by
// frame CRC).
func TestInjectShortRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewInjector(nil, 3)
	inj.ShortReads(0)
	data, err := inj.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= 4096 {
		t.Fatalf("short read returned %d of 4096 bytes", len(data))
	}
	inj.Disarm()
	if data, _ := inj.ReadFile(path); len(data) != 4096 {
		t.Fatalf("disarmed read returned %d bytes", len(data))
	}
}

// TestTortureDeterministic: probabilistic arming fires the same fault
// schedule for the same seed over a serialized op sequence.
func TestTortureDeterministic(t *testing.T) {
	run := func() []bool {
		dir := t.TempDir()
		inj := faultinject.NewInjector(nil, 99)
		inj.Torture(0.3, 0.3, 0)
		f := openRW(t, inj, filepath.Join(dir, "f"))
		defer f.Close()
		var fired []bool
		for k := 0; k < 32; k++ {
			_, werr := f.Write([]byte("x"))
			serr := f.Sync()
			fired = append(fired, werr != nil, serr != nil)
		}
		return fired
	}
	a, b := run(), run()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("op %d: run A fired=%v, run B fired=%v", k, a[k], b[k])
		}
	}
	any := false
	for _, v := range a {
		any = any || v
	}
	if !any {
		t.Fatal("p=0.3 over 64 ops fired nothing; torture is vacuous")
	}
}
