// Package mapped opens snapshot files as byte slices backed by a
// read-only mmap when the platform supports it, falling back to a plain
// read otherwise. The mapping is what makes warm start O(pages touched)
// instead of O(bytes decoded): the kernel pages index bytes in on first
// access, keeps them in the shared page cache, and every process (or
// every shard DB in one process) mapping the same snapshot file shares
// one physical copy.
//
// Data from a mapped Snapshot is read-only — writing through slices that
// alias it faults. The decoded indexes are immutable, so nothing does.
package mapped

import (
	"fmt"
	"io"
	"os"
)

// Snapshot is an open snapshot file's bytes plus how they are held.
type Snapshot struct {
	// Data is the whole file. When Mapped, it is a read-only view of the
	// kernel page cache and stays valid until Close.
	Data []byte
	// Mapped reports whether Data is an mmap'ed view (false on platforms
	// without mmap or when mapping failed and the file was read instead).
	Mapped bool
	region []byte // exact mapping for munmap; nil when !Mapped
}

// Open maps (or reads) the snapshot file at path.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Closing f does not invalidate an established mapping.
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 {
		return nil, fmt.Errorf("mapped: %s is empty", path)
	}
	if size <= int64(^uint(0)>>1) {
		if s, err := mmapFile(f, int(size)); err == nil {
			return s, nil
		}
	}
	// Fallback: a private in-memory copy (exotic filesystems, platforms
	// without mmap). Callers treat it identically, just without the
	// zero-copy and page-cache-sharing properties.
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Data: data}, nil
}

// Close releases the mapping. Aliased slices decoded from Data must not be
// used afterwards; callers (rnknn.DB.Close) only close once queries have
// stopped. Safe on a fallback (non-mapped) Snapshot and on nil.
func (s *Snapshot) Close() error {
	if s == nil || !s.Mapped {
		return nil
	}
	region := s.region
	s.Data, s.region, s.Mapped = nil, nil, false
	return munmap(region)
}
