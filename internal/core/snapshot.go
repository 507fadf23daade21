// Index persistence for the engine: SaveIndexes writes every built index
// (and the graph itself) into one snapshot container, LoadIndexesData
// installs indexes decoded from a snapshot held whole in memory, so the
// lazy-build getters find them already present. Every index section
// decodes in parallel through its row of the indexes table, and
// BuiltIndexes distinguishes loaded from built entries so callers can
// verify a warm start skipped construction. Over an mmap'ed snapshot the
// mappable sections decode into structs whose slices alias the mapping.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rnknn/internal/graph"
	"rnknn/internal/snapio"
	"rnknn/internal/snapshot"
)

// Fingerprint returns the snapshot fingerprint of the engine's graph,
// computed once — it walks every graph array, which is worth amortizing
// across the save/load/cache-path calls of one Open.
func (e *Engine) Fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = snapshot.Fingerprint(e.G) })
	return e.fp
}

// SeedFingerprint installs fp as the engine's fingerprint without
// computing it from the graph. The self-contained mapped open uses it: the
// graph there is a view of the snapshot being opened, so recomputing the
// fingerprint would fault in every graph page just to compare the file
// with itself. No-op if the fingerprint was already computed or seeded.
func (e *Engine) SeedFingerprint(fp uint64) {
	e.fpOnce.Do(func() { e.fp = fp })
}

// SecGraph names the snapshot section that carries the road network
// itself; every other section is named after its row of indexes.
const SecGraph = "Graph"

// secRetired names the one retired index section: SILC, the index of
// Distance Browsing (DisBrw, DisBrw-OH), which left the serving build for
// the experiment harness. A file that carries it was written for methods
// this build no longer serves, so opening it fails with ErrBadSnapshot
// instead of dropping the section silently.
const secRetired = "SILC"

// SaveIndexes writes the graph and every index built so far as one
// snapshot. Indexes are immutable once built, so encoding proceeds outside
// the engine lock and concurrent queries keep running. Saving an engine
// with no built indexes writes a valid snapshot carrying just the graph.
func (e *Engine) SaveIndexes(w io.Writer) error {
	e.mu.Lock()
	idx := e.idx
	e.mu.Unlock()

	secs := []snapshot.Section{{Name: SecGraph, Mappable: true, Encode: func(w io.Writer) error {
		_, err := e.G.WriteSnapshot(w)
		return err
	}}}
	for i, s := range idx {
		if s.x == nil {
			continue
		}
		// The container records declared dependencies so readers reject a
		// table that lists TNR before (or without) CH.
		secs = append(secs, snapshot.Section{Name: indexes[i].name, Mappable: true, Deps: indexes[i].deps,
			Encode: func(w io.Writer) error {
				_, err := s.x.WriteTo(w)
				return err
			}})
	}
	return snapshot.Write(w, e.Fingerprint(), secs)
}

// LoadIndexesData parses a snapshot written by SaveIndexes, held whole in
// data (read into the heap or mapped), and installs every index it
// contains that the engine has not already built, so the lazy getters (and
// EnsureIndex) treat them as present. The snapshot must carry the
// fingerprint of the engine's graph (ErrFingerprintMismatch otherwise);
// corrupt containers or payloads surface ErrBadSnapshot, also for a
// section whose index the engine already holds, and so does a retired
// section (see secRetired). Sections decode in parallel across CPU cores;
// unknown section names are skipped (that is how old binaries read
// snapshots that carry indexes added later). BuiltIndexes
// reports the decode time of each loaded index and marks it Loaded.
//
// With alias set, mappable sections decode into indexes whose slices are
// views of data — data must then stay valid (and unmodified) for the life
// of the engine — and checksum verification is skipped along with the
// per-element validation scans: a mapped open's cost is O(pages touched),
// and verifying would touch them all. Pass alias=false for private
// decoding with full verification.
func (e *Engine) LoadIndexesData(data []byte, alias bool) error {
	fp, payloads, err := snapshot.Parse(data, !alias)
	if err != nil {
		return err
	}
	if want := e.Fingerprint(); fp != want {
		return fmt.Errorf("%w: snapshot %016x vs graph %016x", snapshot.ErrFingerprintMismatch, fp, want)
	}
	return e.installPayloads(payloads, alias)
}

// LoadGraphData decodes the Graph section of a snapshot and returns it
// with the container fingerprint, without touching index sections. The
// self-contained open (rnknn.OpenSnapshotFile) uses it to bootstrap: the
// returned graph seeds a new engine, whose SeedFingerprint takes the
// returned fingerprint on trust (see that method). Alias semantics match
// LoadIndexesData.
func LoadGraphData(data []byte, alias bool) (*graph.Graph, uint64, error) {
	fp, payloads, err := snapshot.Parse(data, !alias)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range payloads {
		if p.Name != SecGraph {
			continue
		}
		g, err := graph.ReadSnapshot(snapio.NewSource(p.Data, alias && p.Mappable))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: section %s: %v", snapshot.ErrBadSnapshot, SecGraph, err)
		}
		return g, fp, nil
	}
	return nil, 0, fmt.Errorf("%w: snapshot has no %s section (written by an older binary?)", snapshot.ErrBadSnapshot, SecGraph)
}

// installPayloads decodes every index section, in parallel, and installs
// the ones the engine has not already built. alias propagates to mappable
// sections' codecs (see LoadIndexesData).
func (e *Engine) installPayloads(payloads []snapshot.Payload, alias bool) error {
	var found [numIndexes]*snapshot.Payload
	for _, p := range payloads {
		if p.Name == secRetired {
			return fmt.Errorf("%w: section %s is retired (Distance Browsing is no longer served); rebuild the snapshot without it", snapshot.ErrBadSnapshot, p.Name)
		}
		if i := indexNamed(p.Name); i != noIndex {
			found[i] = &p
		}
	}
	// A declared dependency must be in the file or already in the engine
	// (Parse checks the order of those in the file, not their presence).
	e.mu.Lock()
	held := e.idx
	e.mu.Unlock()
	for i, p := range found {
		for _, dep := range indexes[i].deps {
			if d := indexNamed(dep); p != nil && found[d] == nil && held[d].x == nil {
				return fmt.Errorf("%w: snapshot has a %s section but no %s section", snapshot.ErrBadSnapshot, p.Name, dep)
			}
		}
	}

	var decoded [numIndexes]slot
	var errs [numIndexes]error
	var wg sync.WaitGroup
	for i, p := range found {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			x, err := indexes[i].read(snapio.NewSource(p.Data, alias && p.Mappable), e.G)
			decoded[i], errs[i] = slot{x, time.Since(start), true}, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%w: section %s: %v", snapshot.ErrBadSnapshot, indexes[i].name, err)
		}
	}

	// Install atomically: only indexes the engine has not built yet.
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, s := range decoded {
		if s.x != nil && e.idx[i].x == nil {
			e.idx[i] = s
		}
	}
	return nil
}

// indexNamed returns the row of indexes with the given name, or noIndex.
func indexNamed(name string) indexID {
	for i := range indexes {
		if indexes[i].name == name {
			return indexID(i)
		}
	}
	return noIndex
}
