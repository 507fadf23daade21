// Index persistence on the public API: save a DB's built indexes as one
// snapshot, open a DB from a snapshot, or let WithIndexCache do both
// transparently. The snapshot container format is specified byte-for-byte in
// docs/SNAPSHOT_FORMAT.md.
package rnknn

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rnknn/internal/core"
	"rnknn/internal/mapped"
	"rnknn/internal/snapshot"
)

// Snapshot errors; match with errors.Is.
var (
	// ErrBadSnapshot reports a malformed, truncated, or corrupt snapshot
	// (bad magic, unsupported version, checksum mismatch, or a section its
	// index codec rejects).
	ErrBadSnapshot = snapshot.ErrBadSnapshot
	// ErrFingerprintMismatch reports a valid snapshot whose indexes were
	// built over a different graph than the one supplied.
	ErrFingerprintMismatch = snapshot.ErrFingerprintMismatch
)

// WithIndexCache makes Open transparently persistent: before building any
// index it tries to load dir/<graph>-<fingerprint>.rnks, and after building
// it saves every built index back (written to a temporary file and renamed,
// so readers never observe a partial snapshot). The file name includes the
// graph fingerprint, so a changed graph simply misses the cache and
// rebuilds; a corrupt or mismatched cache file is ignored the same way. The
// second Open of the same graph therefore skips every expensive build —
// observable via Stats().Indexes[...].Loaded.
//
// The cache is best-effort in both directions: a failed load falls back to
// building, and a failed save (full or read-only cache volume) does not
// fail the Open that just built its indexes successfully — the next Open
// simply builds again. Use DB.SaveIndexesFile when a write failure must be
// surfaced. Only creating the cache directory itself reports an error,
// since that points at a misconfigured dir rather than a runtime fault.
func WithIndexCache(dir string) Option {
	return func(c *config) { c.cacheDir = dir }
}

// OpenFromSnapshot is Open, warm-started from a snapshot previously written
// by SaveIndexes (or cmd/buildindex): every index the snapshot carries is
// loaded instead of built, and any enabled method whose index the snapshot
// lacks is built as usual. The snapshot must match g (ErrFingerprintMismatch
// otherwise); corrupt data surfaces ErrBadSnapshot. r is read to its end
// into memory and decoded with every check (checksums included); the bytes
// are not retained. To open a snapshot file zero-copy, use
// OpenSnapshotFile.
func OpenFromSnapshot(g *Graph, r io.Reader, opts ...Option) (*DB, error) {
	// io.Copy hands a WriterTo source (a bytes.Reader) over in one write,
	// so the buffer is sized once rather than regrown as io.ReadAll would.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	opts = append(append([]Option(nil), opts...), func(c *config) { c.snap = &mapped.Snapshot{Data: buf.Bytes()} })
	return Open(g, opts...)
}

// WithMmap selects the zero-copy snapshot load path: when the snapshot
// source is a file (the WithIndexCache file, or OpenSnapshotFile — which
// implies it), the file is mmap'ed read-only and every mappable section
// decodes into slices that alias the mapping. Warm start becomes O(pages
// touched) instead of O(bytes decoded), and all processes opening the same
// snapshot share one physical copy of it in the page cache.
//
// The trade: a mapped open skips checksum verification and the
// per-element validation scans (each would fault in every page, paying
// the full decode cost the mapping exists to avoid), so it trusts the
// snapshot file — appropriate for snapshots the deployment wrote itself.
// Close the DB when done to release the mapping; on platforms without
// mmap the flag quietly degrades to the ordinary verified decode.
func WithMmap() Option {
	return func(c *config) { c.mmap = true }
}

// OpenSnapshotFile opens a DB directly from a self-contained snapshot
// file written by SaveIndexesFile or cmd/buildindex — no graph argument:
// the snapshot's own Graph section supplies the road network, mapped
// zero-copy alongside the indexes (see WithMmap, which this implies).
// This is the continental-scale entry point: opening a multi-gigabyte
// snapshot costs page faults, not a decode of every byte, and N replicas
// of one snapshot cost one page cache, not N heaps.
func OpenSnapshotFile(path string, opts ...Option) (*DB, error) {
	ms, err := mapped.Open(path)
	if err != nil {
		return nil, err
	}
	g, fp, err := core.LoadGraphData(ms.Data, ms.Mapped)
	if err != nil {
		_ = ms.Close()
		return nil, err
	}
	opts = append(append([]Option(nil), opts...), func(c *config) {
		c.snap = ms
		c.seedFP = fp
		c.seedFPSet = true
	})
	db, err := Open(g, opts...)
	if err != nil {
		_ = ms.Close() // idempotent: Open may have released it already
		return nil, err
	}
	return db, nil
}

// Close releases resources the DB holds beyond ordinary heap — today the
// snapshot mapping established by WithMmap or OpenSnapshotFile. Call it
// only after every query, monitor, and batch has completed: indexes
// decoded from the mapping alias it, and touching them afterwards faults.
// Close is idempotent; a DB without a mapping closes to nil trivially.
func (db *DB) Close() error {
	return db.mapped.Close()
}

// SaveIndexes writes every index the DB has built as one snapshot. Indexes
// are immutable once built, so this is safe to call while queries are in
// flight.
func (db *DB) SaveIndexes(w io.Writer) error {
	return db.eng.SaveIndexes(w)
}

// SaveIndexesFile writes the snapshot to path atomically: the bytes go to a
// temporary file in the same directory, synced, then renamed over path.
func (db *DB) SaveIndexesFile(path string) error {
	return writeFileAtomic(path, db.SaveIndexes)
}

// writeFileAtomic streams write into a temp file next to path and renames it
// into place, so concurrent readers of path see the old or the new snapshot,
// never a torn one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = ""
	return nil
}

// cacheFilePath names the snapshot for g inside dir: the sanitized graph
// name plus the graph fingerprint (which also covers the active weight
// kind), so distance and travel-time views of one network cache separately.
func cacheFilePath(dir string, g *Graph, fingerprint uint64) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, g.Name)
	if name == "" {
		name = "graph"
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.rnks", name, fingerprint))
}
