//go:build !linux

package diskio

import "os"

// openFile opens through the os package where the bare-descriptor File
// of file_linux.go is not built.
func openFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
