package diskio

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// The open contract of OS.OpenFile: the os.OpenFile behavior the
// storage layer relies on, kept while bypassing os.OpenFile itself.

func TestOpenMissingIsPathErrNotExist(t *testing.T) {
	name := filepath.Join(t.TempDir(), "absent")
	f, err := OS{}.OpenFile(name, os.O_RDONLY, 0)
	if f != nil {
		t.Fatalf("open of a missing file returned a file: %v", f)
	}
	var pe *os.PathError
	if !errors.As(err, &pe) || pe.Op != "open" || pe.Path != name {
		t.Fatalf("error is not an open *os.PathError naming the file: %#v", err)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("error does not match fs.ErrNotExist: %v", err)
	}
}

func TestOpenAppendAppends(t *testing.T) {
	name := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(name, []byte("first\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"second\n", "third\n"} {
		f, err := OS{}.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(name); string(got) != "first\nsecond\nthird\n" {
		t.Fatalf("content %q", got)
	}
}

func TestOpenCreateTruncAppliesPermUnderUmask(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o666, 0o600} {
		// os.OpenFile creates the reference: the same perm under the
		// same umask must give the same mode.
		ref := filepath.Join(dir, "ref")
		rf, err := os.OpenFile(ref, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
		if err != nil {
			t.Fatal(err)
		}
		rf.Close()
		name := filepath.Join(dir, "new")
		f, err := OS{}.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		want, _ := os.Stat(ref)
		got, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode() != want.Mode() {
			t.Fatalf("perm %v: created %v, os.OpenFile creates %v", perm, got.Mode(), want.Mode())
		}
		os.Remove(ref)
		os.Remove(name)
	}

	name := filepath.Join(dir, "old")
	if err := os.WriteFile(name, []byte("stale content"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(OS{}, name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, _ := os.ReadFile(name); string(got) != "new" {
		t.Fatalf("O_TRUNC left %q", got)
	}
}

func TestOpenSecondCloseIsErrClosed(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(OS{}, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second Close = %v, want os.ErrClosed", err)
	}
}
