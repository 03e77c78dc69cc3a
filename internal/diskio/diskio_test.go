package diskio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestWriteAtomicPublishesComplete(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(OS{}, path, []byte("hello world\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world\n" {
		t.Fatalf("content %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestWriteAtomicReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(OS{}, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OS{}, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v2" {
		t.Fatalf("content %q, want v2", got)
	}
}

func TestWriteAtomicWriteErrorLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(OS{}, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(OS{}, path, func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v1" {
		t.Fatalf("target changed to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// TestWriteAtomicNeverPartiallyVisible: crash the publication at every
// I/O boundary; at each one the target either keeps its previous
// complete content or holds the new complete content — never a prefix.
func TestWriteAtomicNeverPartiallyVisible(t *testing.T) {
	const oldContent, newContent = "old complete artifact\n", "new complete artifact, longer\n"
	// Profile a clean publication to count its boundaries.
	probeDir := t.TempDir()
	probe := NewFaultFS(OS{}, 7)
	if err := WriteFileAtomic(probe, filepath.Join(probeDir, "a"), []byte(newContent)); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 4 { // create, write, sync, rename (+ dir sync)
		t.Fatalf("publication used %d ops, expected at least 4", total)
	}
	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "a")
		if err := os.WriteFile(path, []byte(oldContent), 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(OS{}, 7)
		ffs.CrashAfter(n)
		err := WriteFileAtomic(ffs, path, []byte(newContent))
		if n < total && err == nil {
			t.Fatalf("crash at op %d/%d: publication claimed success", n, total)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: target unreadable: %v", n, rerr)
		}
		if s := string(got); s != oldContent && s != newContent {
			t.Fatalf("crash at op %d: partial artifact visible: %q", n, s)
		}
	}
}

func TestFaultFSFailOpInjectsENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 1)
	f, err := Create(ffs, filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.FailOp(2, syscall.ENOSPC) // op 1 was the create
	_, err = f.Write([]byte("0123456789"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if !IsStorageErr(err) {
		t.Fatal("ENOSPC not classified as a storage error")
	}
	// The filesystem stays alive after a non-crash fault.
	if _, err := f.Write([]byte("after")); err != nil {
		t.Fatalf("write after injected fault: %v", err)
	}
}

func TestFaultFSFailFromIsPersistent(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 1)
	f, err := Create(ffs, filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ffs.FailFrom(2, syscall.EIO)
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("data")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("write %d: err = %v, want persistent EIO", i, err)
		}
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync: err = %v, want EIO", err)
	}
}

func TestFaultFSCrashFreezesEverything(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 1)
	f, err := Create(ffs, filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfter(2)
	if _, err := f.Write([]byte("abc")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: %v", err)
	}
	if _, err := Open(ffs, filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: %v", err)
	}
	if IsStorageErr(ErrCrashed) {
		t.Fatal("a crash must not classify as a degradable storage error")
	}
	f.Close()
}

// TestFaultFSTearDeterministic: the torn prefix of a crashing write is
// a pure function of (seed, op ordinal) — two identically-configured
// runs leave byte-identical wreckage.
func TestFaultFSTearDeterministic(t *testing.T) {
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	run := func(seed uint64) []byte {
		dir := t.TempDir()
		ffs := NewFaultFS(OS{}, seed)
		f, err := Create(ffs, filepath.Join(dir, "x"))
		if err != nil {
			t.Fatal(err)
		}
		ffs.CrashAfter(2)
		f.Write(payload)
		f.Close()
		got, err := os.ReadFile(filepath.Join(dir, "x"))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(42), run(42)
	if string(a) != string(b) {
		t.Fatalf("same seed, different wreckage: %q vs %q", a, b)
	}
	if len(a) >= len(payload) {
		t.Fatalf("crashing write not torn: %d bytes survived", len(a))
	}
	// A different seed should (for this payload/seed pair) tear
	// elsewhere; equality would suggest the offset ignores the seed.
	if c := run(43); string(c) == string(a) && len(a) > 0 {
		t.Logf("note: seeds 42 and 43 tore at the same offset (possible, but worth a look)")
	}
}

func TestFaultFSOpsCountsMutations(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 1)
	f, err := Create(ffs, filepath.Join(dir, "x")) // op 1
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("a")) // op 2
	f.Sync()             // op 3
	f.Close()            // not a mutation
	// Nor is opening for reading.
	if _, err := Open(ffs, filepath.Join(dir, "x")); err != nil {
		t.Fatal(err)
	}
	ffs.SyncDir(dir) // op 4
	if got := ffs.Ops(); got != 4 {
		t.Fatalf("Ops() = %d, want 4", got)
	}
}
