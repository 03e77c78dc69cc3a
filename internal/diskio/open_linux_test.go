package diskio

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// fcntl reads one descriptor flag word (F_GETFD or F_GETFL) of f
// through its Fd method.
func fcntl(t *testing.T, f File, cmd int) int {
	t.Helper()
	fd := f.(interface{ Fd() uintptr }).Fd()
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, uintptr(cmd), 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	return int(flags)
}

// TestOpenDescriptorIsCloexecAndBlocking: every descriptor OS.OpenFile
// returns, read-only or created, is close-on-exec (no leak into child
// processes) and in blocking mode (never registered with the poller).
func TestOpenDescriptorIsCloexecAndBlocking(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f")
	for _, flag := range []int{os.O_WRONLY | os.O_CREATE | os.O_TRUNC, os.O_RDONLY, os.O_RDWR | os.O_APPEND} {
		f, err := OS{}.OpenFile(name, flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if fcntl(t, f, syscall.F_GETFD)&syscall.FD_CLOEXEC == 0 {
			t.Errorf("flag %#x: descriptor is not close-on-exec", flag)
		}
		if fcntl(t, f, syscall.F_GETFL)&syscall.O_NONBLOCK != 0 {
			t.Errorf("flag %#x: descriptor is non-blocking", flag)
		}
		f.Close()
	}
}
