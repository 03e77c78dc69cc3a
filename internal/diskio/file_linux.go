package diskio

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// openFile opens name with the open system call and returns the bare
// descriptor as an fdFile. os.OpenFile would also offer every regular
// file to the runtime's network poller (two fcntl calls to make it
// non-blocking, an epoll_ctl that fails, two more to undo the first
// two), and even os.NewFile costs an fcntl, a finalizer and a poll
// descriptor: together more than half the CPU a warm result-cache hit
// spends outside its decode. The descriptor is close-on-exec and
// blocking, as os.OpenFile leaves a regular file; perm contributes its
// permission bits.
func openFile(name string, flag int, perm os.FileMode) (File, error) {
	for {
		fd, err := syscall.Open(name, flag|syscall.O_CLOEXEC, uint32(perm.Perm()))
		if err == nil {
			return &fdFile{fd: fd, name: name}, nil
		}
		if err != syscall.EINTR {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
	}
}

// fdFile is a File over a bare descriptor, with the *os.File behavior
// the storage layer relies on: its system calls retry on EINTR (except
// close), Write writes everything or fails, Read reports end of file
// as io.EOF, errors are *os.PathError under os.File's Op names, and
// after Close every call fails matching os.ErrClosed. Unlike an
// *os.File it has no finalizer, so an fdFile that is never closed leaks
// its descriptor; it is for one goroutine at a time, Close included;
// and net/http copies it through a buffer, not with sendfile.
type fdFile struct {
	fd   int // -1 once closed
	name string
}

func (f *fdFile) Name() string { return f.name }

// Fd returns the descriptor, -1 once the file is closed.
func (f *fdFile) Fd() uintptr { return uintptr(f.fd) }

// pathErr wraps a failed operation's error as os.File does.
func (f *fdFile) pathErr(op string, err error) error {
	return &os.PathError{Op: op, Path: f.name, Err: err}
}

func (f *fdFile) Read(p []byte) (n int, err error) {
	err = f.call("read", func() (err error) {
		if len(p) > 0 {
			n, err = syscall.Read(f.fd, p)
		}
		return err
	})
	switch {
	case err != nil:
		return 0, err
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}

// Write loops over short writes; after EINTR it resumes where the
// interrupted call stopped.
func (f *fdFile) Write(p []byte) (written int, err error) {
	err = f.call("write", func() error {
		for written < len(p) {
			n, err := syscall.Write(f.fd, p[written:])
			if err != nil {
				return err
			}
			if n == 0 {
				return io.ErrUnexpectedEOF
			}
			written += n
		}
		return nil
	})
	return written, err
}

func (f *fdFile) Seek(offset int64, whence int) (off int64, err error) {
	err = f.call("seek", func() (err error) {
		off, err = syscall.Seek(f.fd, offset, whence)
		return err
	})
	return off, err
}

func (f *fdFile) Sync() error {
	return f.call("sync", func() error { return syscall.Fsync(f.fd) })
}

func (f *fdFile) Truncate(size int64) error {
	return f.call("truncate", func() error { return syscall.Ftruncate(f.fd, size) })
}

// Stat describes the open file with one fstat.
func (f *fdFile) Stat() (os.FileInfo, error) {
	info := &fdInfo{name: filepath.Base(f.name)}
	if err := f.call("stat", func() error { return syscall.Fstat(f.fd, &info.sys) }); err != nil {
		return nil, err
	}
	return info, nil
}

// call runs one system call on the open descriptor, again while it
// fails with EINTR.
func (f *fdFile) call(op string, sys func() error) error {
	if f.fd < 0 {
		return f.pathErr(op, os.ErrClosed)
	}
	for {
		err := sys()
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return f.pathErr(op, err)
		}
	}
}

// Close releases the descriptor. Like close(2) on Linux it is not
// retried on EINTR: the descriptor is gone either way.
func (f *fdFile) Close() error {
	if f.fd < 0 {
		return f.pathErr("close", os.ErrClosed)
	}
	fd := f.fd
	f.fd = -1
	if err := syscall.Close(fd); err != nil {
		return f.pathErr("close", err)
	}
	return nil
}

// fdInfo is the os.FileInfo of an fstat, read as os.Stat reads its
// stat_t.
type fdInfo struct {
	name string
	sys  syscall.Stat_t
}

func (i *fdInfo) Name() string       { return i.name }
func (i *fdInfo) Size() int64        { return i.sys.Size }
func (i *fdInfo) ModTime() time.Time { return time.Unix(i.sys.Mtim.Unix()) }
func (i *fdInfo) IsDir() bool        { return i.Mode().IsDir() }
func (i *fdInfo) Sys() any           { return &i.sys }

// Mode maps the stat_t mode word to an fs.FileMode as os.Stat does.
func (i *fdInfo) Mode() fs.FileMode {
	m := fs.FileMode(i.sys.Mode & 0o777)
	switch i.sys.Mode & syscall.S_IFMT {
	case syscall.S_IFBLK:
		m |= fs.ModeDevice
	case syscall.S_IFCHR:
		m |= fs.ModeDevice | fs.ModeCharDevice
	case syscall.S_IFDIR:
		m |= fs.ModeDir
	case syscall.S_IFIFO:
		m |= fs.ModeNamedPipe
	case syscall.S_IFLNK:
		m |= fs.ModeSymlink
	case syscall.S_IFSOCK:
		m |= fs.ModeSocket
	}
	if i.sys.Mode&syscall.S_ISGID != 0 {
		m |= fs.ModeSetgid
	}
	if i.sys.Mode&syscall.S_ISUID != 0 {
		m |= fs.ModeSetuid
	}
	if i.sys.Mode&syscall.S_ISVTX != 0 {
		m |= fs.ModeSticky
	}
	return m
}
