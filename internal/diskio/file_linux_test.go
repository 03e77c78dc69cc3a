package diskio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The bare-descriptor File OS.OpenFile returns on Linux keeps the
// *os.File behavior the storage layer relies on.

func TestFdFileReadWriteSeekTruncateSync(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	f, err := OS{}.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(*fdFile); !ok {
		t.Fatalf("OS.OpenFile returned a %T, want the bare descriptor", f)
	}
	if n, err := f.Write([]byte("hello, world")); n != 12 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if off, err := f.Seek(1, io.SeekStart); off != 1 || err != nil {
		t.Fatalf("Seek = %d, %v", off, err)
	}
	buf := make([]byte, 16)
	if n, err := f.Read(buf); n != 4 || err != nil || string(buf[:n]) != "ello" {
		t.Fatalf("Read = %d %q, %v", n, buf[:n], err)
	}
	if n, err := f.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read at end of file = %d, %v; want 0, io.EOF", n, err)
	}
	if n, err := f.Read(nil); n != 0 || err != nil {
		t.Fatalf("empty Read = %d, %v", n, err)
	}
	if off, err := f.Seek(0, io.SeekEnd); off != 5 || err != nil {
		t.Fatalf("Seek to end = %d, %v", off, err)
	}
	if got, _ := os.ReadFile(name); string(got) != "hello" {
		t.Fatalf("content %q", got)
	}
}

func TestFdFileStatMatchesOSStat(t *testing.T) {
	name := filepath.Join(t.TempDir(), "entry")
	if err := os.WriteFile(name, []byte("0123456789"), 0o640); err != nil {
		t.Fatal(err)
	}
	mtime := time.Date(2023, 3, 25, 12, 0, 0, 123456789, time.UTC)
	if err := os.Chtimes(name, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	f, err := Open(OS{}, name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Stat(OS{}, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() || !got.ModTime().Equal(want.ModTime()) ||
		got.Mode() != want.Mode() || got.Name() != want.Name() || got.IsDir() {
		t.Fatalf("fstat %s %d %v %v, os.Stat %s %d %v %v",
			got.Name(), got.Size(), got.Mode(), got.ModTime(), want.Name(), want.Size(), want.Mode(), want.ModTime())
	}
	if !got.ModTime().Equal(mtime) {
		t.Fatalf("ModTime %v, want %v", got.ModTime(), mtime)
	}
}

func TestFdFileCallsAfterCloseAreErrClosed(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	f, err := OS{}.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, readErr := f.Read(make([]byte, 1))
	_, writeErr := f.Write([]byte("x"))
	_, seekErr := f.Seek(0, io.SeekStart)
	_, statErr := Stat(OS{}, f)
	for op, err := range map[string]error{
		"read": readErr, "write": writeErr, "seek": seekErr, "stat": statErr,
		"sync": f.Sync(), "truncate": f.Truncate(0), "close": f.Close(),
	} {
		var pe *os.PathError
		if !errors.Is(err, os.ErrClosed) || !errors.As(err, &pe) || pe.Op != op || pe.Path != name {
			t.Errorf("%s after Close = %v, want a %q *os.PathError matching os.ErrClosed", op, err, op)
		}
	}
}

// TestFaultFileStat: a FaultFS file's Stat passes through until the
// filesystem freezes, then fails with ErrCrashed without consuming an
// operation ordinal.
func TestFaultFileStat(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, 1)
	f, err := Open(ffs, name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if info, err := Stat(ffs, f); err != nil || info.Size() != 3 {
		t.Fatalf("Stat = %v, %v", info, err)
	}
	ffs.CrashAfter(1)
	if err := ffs.Remove(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing op: %v", err)
	}
	ops := ffs.Ops()
	if _, err := Stat(ffs, f); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Stat after the crash = %v, want ErrCrashed", err)
	}
	if ffs.Ops() != ops {
		t.Fatal("Stat consumed an operation ordinal")
	}
}
