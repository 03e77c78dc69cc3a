// Package diskio is the storage layer's filesystem abstraction. Every
// writer whose output must survive an ungraceful death — the campaign
// checkpoint, the tuning dataset, report artifacts, pprof profiles —
// goes through a diskio.FS instead of the os package directly, so the
// same code paths run against the real filesystem in production and
// against a deterministic fault-injecting filesystem (FaultFS) in
// tests.
//
// The injecting filesystem can tear a write at any byte offset, fail
// Sync or Rename with EIO/ENOSPC, and "crash" — freeze all subsequent
// I/O — at the Nth operation. That enables the crash-at-every-boundary
// property: run a campaign, crash it at each successive I/O boundary,
// resume on a healthy filesystem, and assert the final dataset is
// byte-identical to an uninterrupted run.
//
// The real filesystem opens files as bare descriptors on Linux rather
// than as *os.File values: no network-poller registration, no
// finalizer, no fcntl. A warm result-cache hit inside the cache's
// recency grain costs one openat, one fstat, one read of exactly the
// size the fstat reported, and one close.
//
// The package also defines the error taxonomy the storage layer's
// graceful degradation relies on: IsStorageErr recognizes the
// exhausted-or-failing-media conditions (ENOSPC, EIO) that a campaign
// survives by going in-memory, as opposed to a simulated crash
// (ErrCrashed) or a logic error, which do not degrade.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// File is the subset of *os.File the storage layer needs. Every method
// of a FaultFS file is gated by the fault stream, so a torn write or a
// failed fsync surfaces exactly where the real syscall would fail.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS abstracts the filesystem operations of the storage layer. Real
// code uses OS{}; tests substitute a FaultFS wrapping it.
type FS interface {
	// OpenFile is the generalized open call (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// SyncDir fsyncs a directory, making prior renames and creates in
	// it durable. Required after the rename of an atomic publication.
	SyncDir(dir string) error
	// MkdirAll creates a directory and any missing parents
	// (os.MkdirAll semantics).
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// Chtimes sets a file's access and modification times. The result
	// cache uses it to mark recency for its LRU compaction pass.
	Chtimes(name string, atime, mtime time.Time) error
}

// Stat describes f, which fsys opened: by fstat when f has a Stat
// method, as OS and FaultFS files do, else through fsys.Stat of its
// name. File itself does not require the method, so File
// implementations outside this package need not have it.
func Stat(fsys FS, f File) (os.FileInfo, error) {
	if s, ok := f.(interface{ Stat() (os.FileInfo, error) }); ok {
		return s.Stat()
	}
	return fsys.Stat(f.Name())
}

// Create opens name for writing, truncating it if it exists.
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open opens name read-only.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// OS is the real filesystem.
type OS struct{}

// OpenFile opens a file. On Linux it returns the bare descriptor
// (file_linux.go) instead of an *os.File; elsewhere it is os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return openFile(name, flag, perm)
}

// Rename renames through the os package.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove removes through the os package.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll creates directories through the os package.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir lists through the os package.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Stat stats through the os package.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// Chtimes sets timestamps through the os package.
func (OS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// SyncDir fsyncs the directory so entries created or renamed into it
// are durable.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// IsStorageErr reports whether err is an exhausted-or-failing-media
// condition — ENOSPC or EIO anywhere in the chain — that the storage
// layer degrades gracefully on (finish in-memory, flag the report)
// rather than aborting the campaign. A simulated crash (ErrCrashed) is
// deliberately not a storage error: a crashed process cannot degrade,
// it is dead.
func IsStorageErr(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}

// WriteAtomic publishes a file at path with all-or-nothing visibility:
// the content is written to the sibling temp file path+".tmp",
// fsynced, renamed over path, and the containing directory fsynced. A
// reader — or a process that crashes at any instant — observes either
// the complete previous content or the complete new content, never a
// partial artifact.
//
// write receives the temp file; any error it returns aborts the
// publication and removes the temp file, leaving path untouched.
func WriteAtomic(fsys FS, path string, write func(w io.Writer) error) error {
	return WriteAtomicVia(fsys, path+".tmp", path, write)
}

// WriteAtomicVia is WriteAtomic through the temp file tmp, which must
// lie on path's filesystem but may sit in another directory, so that a
// crashed writer's leftover is found without listing path's directory.
// Only path's directory is fsynced: a rename that is lost in a crash
// leaves tmp behind, never a partial path.
func WriteAtomicVia(fsys FS, tmp, path string, write func(w io.Writer) error) error {
	f, err := Create(fsys, tmp)
	if err != nil {
		return fmt.Errorf("diskio: create %s: %w", tmp, err)
	}
	fail := func(stage string, err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("diskio: %s %s: %w", stage, tmp, err)
	}
	if err := write(f); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("diskio: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("diskio: publish %s: %w", path, err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// WriteFileAtomic is WriteAtomic for a byte slice.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	return WriteAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
