package diskio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"repro/internal/xrand"
)

// ErrCrashed is returned by every operation of a FaultFS after its
// configured crash point: the simulated machine is dead and the
// filesystem frozen in whatever state the preceding operations left on
// the inner filesystem. It is deliberately not a storage error
// (IsStorageErr is false) — a crashed process cannot degrade
// gracefully, it can only be restarted against the surviving bytes.
var ErrCrashed = errors.New("diskio: simulated crash: filesystem frozen")

// FaultFS wraps an inner FS with a deterministic fault stream. Faults
// are keyed by the ordinal of each mutating operation — opening for
// write, Write, Sync, Truncate, Rename, Remove, MkdirAll, Chtimes,
// SyncDir — counted from 1 in execution order:
//
//   - CrashAfter(n) freezes the filesystem at operation n. The crashing
//     operation is applied partially — a Write is torn at a byte offset
//     drawn from a split-seed stream, a metadata operation is dropped —
//     and every later operation (reads included) returns ErrCrashed.
//   - FailOp(n, err) makes operation n fail with err (torn like a
//     crash, but the filesystem stays alive).
//   - FailFrom(n, err) makes every operation from n on fail with err —
//     persistent ENOSPC or EIO, the graceful-degradation scenario.
//
// Tear offsets derive purely from (seed, op ordinal), so a given
// configuration replays byte-identically. Ops reports the count so a
// fault-free profiling run can enumerate every crash boundary.
type FaultFS struct {
	inner FS
	seed  uint64

	mu         sync.Mutex
	ops        int
	crashAfter int
	crashed    bool
	failOps    map[int]error
	failFrom   int
	failErr    error
}

// NewFaultFS wraps inner with an initially fault-free injecting
// filesystem; seed drives the torn-write offset stream.
func NewFaultFS(inner FS, seed uint64) *FaultFS {
	return &FaultFS{inner: inner, seed: seed, failOps: map[int]error{}}
}

// CrashAfter arms the crash at mutating operation n (1-based); 0
// disarms it.
func (f *FaultFS) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAfter = n
}

// FailOp makes mutating operation n (1-based) fail with err.
func (f *FaultFS) FailOp(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failOps[n] = err
}

// FailFrom makes every mutating operation from n (1-based) on fail
// with err — a persistently full or failing disk.
func (f *FaultFS) FailFrom(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failFrom, f.failErr = n, err
}

// Ops returns how many mutating operations have been attempted.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// verdict is one mutating operation's fate.
type verdict struct {
	err  error // nil: proceed
	tear bool  // writes apply a torn prefix before failing
	op   int   // ordinal, for the tear-offset derivation
}

// gate assigns the next mutating operation its fate.
func (f *FaultFS) gate() verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return verdict{err: ErrCrashed}
	}
	f.ops++
	op := f.ops
	if f.crashAfter > 0 && op >= f.crashAfter {
		f.crashed = true
		return verdict{err: ErrCrashed, tear: true, op: op}
	}
	if err, ok := f.failOps[op]; ok {
		return verdict{err: err, tear: true, op: op}
	}
	if f.failErr != nil && op >= f.failFrom {
		return verdict{err: f.failErr, tear: true, op: op}
	}
	return verdict{op: op}
}

// frozen reports the post-crash state; non-mutating operations check it
// without consuming an ordinal.
func (f *FaultFS) frozen() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// tearOffset picks where operation op's write tears: a pure function
// of (seed, op), uniform over [0, n].
func (f *FaultFS) tearOffset(op, n int) int {
	return xrand.NewFromPath(f.seed, "diskio-tear", fmt.Sprintf("op-%d", op)).Intn(n + 1)
}

// pathErr wraps an injected error with syscall-style context so the
// chain still matches errors.Is(err, syscall.ENOSPC) etc.
func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

// writeFlags are the os.OpenFile flags that make an open a mutating
// operation.
const writeFlags = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC

// OpenFile opens through the inner FS; opens for writing are gated by
// the fault stream, and a crash point landing on one leaves the file
// uncreated.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&writeFlags != 0 {
		if v := f.gate(); v.err != nil {
			return nil, pathErr("open", name, v.err)
		}
	} else if f.frozen() {
		return nil, pathErr("open", name, ErrCrashed)
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Rename is gated; a crash or failure drops the rename entirely
// (rename is atomic — it either happened or it did not).
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if v := f.gate(); v.err != nil {
		return pathErr("rename", newpath, v.err)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove is gated.
func (f *FaultFS) Remove(name string) error {
	if v := f.gate(); v.err != nil {
		return pathErr("remove", name, v.err)
	}
	return f.inner.Remove(name)
}

// MkdirAll is gated; a crash or failure drops the whole creation
// (directory creation is treated as atomic at this granularity).
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if v := f.gate(); v.err != nil {
		return pathErr("mkdir", path, v.err)
	}
	return f.inner.MkdirAll(path, perm)
}

// Chtimes is gated: it mutates metadata, so a full disk or a crash
// point can land on it.
func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	if v := f.gate(); v.err != nil {
		return pathErr("chtimes", name, v.err)
	}
	return f.inner.Chtimes(name, atime, mtime)
}

// ReadDir passes through unless the filesystem has crashed; like Read,
// it does not consume a fault ordinal.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if f.frozen() {
		return nil, pathErr("readdir", name, ErrCrashed)
	}
	return f.inner.ReadDir(name)
}

// Stat passes through unless the filesystem has crashed.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	if f.frozen() {
		return nil, pathErr("stat", name, ErrCrashed)
	}
	return f.inner.Stat(name)
}

// SyncDir is gated; a dropped directory sync is the classic
// rename-not-durable crash window.
func (f *FaultFS) SyncDir(dir string) error {
	if v := f.gate(); v.err != nil {
		return pathErr("syncdir", dir, v.err)
	}
	return f.inner.SyncDir(dir)
}

// faultFile gates a File's operations through its filesystem's fault
// stream.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Name() string { return ff.inner.Name() }

// Read passes through unless the filesystem has crashed.
func (ff *faultFile) Read(p []byte) (int, error) {
	if ff.fs.frozen() {
		return 0, pathErr("read", ff.inner.Name(), ErrCrashed)
	}
	return ff.inner.Read(p)
}

// Seek passes through unless the filesystem has crashed.
func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.fs.frozen() {
		return 0, pathErr("seek", ff.inner.Name(), ErrCrashed)
	}
	return ff.inner.Seek(offset, whence)
}

// Stat passes through unless the filesystem has crashed.
func (ff *faultFile) Stat() (os.FileInfo, error) {
	if ff.fs.frozen() {
		return nil, pathErr("stat", ff.inner.Name(), ErrCrashed)
	}
	return Stat(ff.fs.inner, ff.inner)
}

// Write is gated; a crash or injected failure tears the write at a
// split-seed byte offset — the prefix reaches the inner file, the rest
// never existed.
func (ff *faultFile) Write(p []byte) (int, error) {
	v := ff.fs.gate()
	if v.err == nil {
		return ff.inner.Write(p)
	}
	n := 0
	if v.tear && len(p) > 0 {
		if k := ff.fs.tearOffset(v.op, len(p)); k > 0 {
			n, _ = ff.inner.Write(p[:k])
		}
	}
	return n, pathErr("write", ff.inner.Name(), v.err)
}

// Sync is gated; a dropped fsync leaves previously-written bytes at
// the mercy of the (simulated) page cache.
func (ff *faultFile) Sync() error {
	if v := ff.fs.gate(); v.err != nil {
		return pathErr("sync", ff.inner.Name(), v.err)
	}
	return ff.inner.Sync()
}

// Truncate is gated.
func (ff *faultFile) Truncate(size int64) error {
	if v := ff.fs.gate(); v.err != nil {
		return pathErr("truncate", ff.inner.Name(), v.err)
	}
	return ff.inner.Truncate(size)
}

// Close always releases the inner file (the test process must not leak
// descriptors across hundreds of simulated crashes) but reports
// ErrCrashed once the filesystem is frozen.
func (ff *faultFile) Close() error {
	err := ff.inner.Close()
	if ff.fs.frozen() {
		return pathErr("close", ff.inner.Name(), ErrCrashed)
	}
	return err
}
