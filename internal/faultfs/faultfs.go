// Package faultfs is the filesystem seam under the write-ahead log: an
// interface covering exactly the operations the journal performs, and a
// real-OS passthrough. Crash-safety tests thread the deterministic fault
// injector of internal/testutil/faultinject through the same seam.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the journal writes and reads through.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem surface the journal runs on. The real implementation
// is OS; tests thread a fault injector.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(name string, perm fs.FileMode) error
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// OS is the passthrough FS over the real operating system.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }
func (OS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
