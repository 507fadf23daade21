//go:build !unix

package mapped

import (
	"errors"
	"os"
)

// mmapFile always fails on platforms without unix mmap; Open falls
// back to reading the file into private memory.
func mmapFile(f *os.File, size int) (*Snapshot, error) {
	return nil, errors.New("mapped: mmap unsupported on this platform")
}

func munmap(region []byte) error { return nil }
