// Index persistence for the engine: SaveIndexes writes every built index
// (and the graph itself) into one snapshot container, LoadIndexesData
// installs indexes decoded from a snapshot held whole in memory, so the
// lazy-build getters find them already present. Decoding runs in parallel
// across sections (CH first — TNR shares the hierarchy, a dependency the
// container records explicitly), and BuiltIndexes distinguishes loaded from
// built entries so callers can verify a warm start skipped construction.
// Over an mmap'ed snapshot the mappable sections decode into structs whose
// slices alias the mapping.
package core

import (
	"fmt"
	"io"
	"time"

	"rnknn/internal/ch"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/phl"
	"rnknn/internal/road"
	"rnknn/internal/silc"
	"rnknn/internal/snapio"
	"rnknn/internal/snapshot"
	"rnknn/internal/tnr"
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

// Section names in the snapshot container, matching the BuildTimes keys
// (SecGraph carries the road network itself, not an index).
const (
	SecGraph = "Graph"
	secGtree = "Gtree"
	secROAD  = "ROAD"
	secSILC  = "SILC"
	secCH    = "CH"
	secPHL   = "PHL"
	secTNR   = "TNR"
)

// SaveIndexes writes the graph and every index built so far as one
// snapshot. Indexes are immutable once built, so encoding proceeds outside
// the engine lock and concurrent queries keep running. Saving an engine
// with no built indexes writes a valid snapshot carrying just the graph.
func (e *Engine) SaveIndexes(w io.Writer) error {
	e.mu.Lock()
	gt, rd, sc, chx, phlx, tnrx := e.gt, e.rd, e.sc, e.chx, e.phlx, e.tnrx
	e.mu.Unlock()

	var secs []snapshot.Section
	add := func(name string, mappable bool, deps []string, wt io.WriterTo) {
		secs = append(secs, snapshot.Section{
			Name:     name,
			Mappable: mappable,
			Deps:     deps,
			Encode: func(w io.Writer) error {
				_, err := wt.WriteTo(w)
				return err
			},
		})
	}
	secs = append(secs, snapshot.Section{
		Name:     SecGraph,
		Mappable: true,
		Encode: func(w io.Writer) error {
			_, err := e.G.WriteSnapshot(w)
			return err
		},
	})
	if gt != nil {
		add(secGtree, true, nil, gt)
	}
	if rd != nil {
		add(secROAD, true, nil, rd)
	}
	if sc != nil {
		add(secSILC, true, nil, sc)
	}
	if chx != nil {
		add(secCH, true, nil, chx)
	}
	if phlx != nil {
		add(secPHL, true, nil, phlx)
	}
	if tnrx != nil {
		// TNR decodes against the contraction hierarchy; the container
		// records the dependency so readers reject a table that lists TNR
		// before (or without) CH instead of trusting writer convention.
		add(secTNR, true, []string{secCH}, tnrx)
	}
	return snapshot.Write(w, e.Fingerprint(), secs)
}

// LoadIndexesData parses a snapshot written by SaveIndexes, held whole in
// data (read into the heap or mapped), and installs every index it
// contains that the engine has not already built, so the lazy getters (and
// EnsureIndex) treat them as present. The snapshot must carry the
// fingerprint of the engine's graph (ErrFingerprintMismatch otherwise);
// corrupt containers or payloads surface ErrBadSnapshot. Sections decode in
// parallel across CPU cores; unknown section names are skipped (that is how
// old binaries read snapshots that carry indexes added later). BuildTimes
// records the decode time of each loaded index, and BuiltIndexes marks it
// Loaded.
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

// installPayloads decodes the index sections and installs whatever the
// engine has not already built. alias propagates to mappable sections'
// codecs (see LoadIndexesData).
func (e *Engine) installPayloads(payloads []snapshot.Payload, alias bool) error {
	byName := make(map[string]snapshot.Payload, len(payloads))
	for _, p := range payloads {
		byName[p.Name] = p
	}
	src := func(p snapshot.Payload) *snapio.Source {
		return snapio.NewSource(p.Data, alias && p.Mappable)
	}

	// CH decodes first: TNR shares the hierarchy object, and an engine that
	// already built one reuses it. (Parse enforces a declared CH-before-TNR
	// ordering, but a container may omit the declaration, so the check
	// below stays.)
	e.mu.Lock()
	chx := e.chx
	e.mu.Unlock()
	var chTime time.Duration
	chLoaded := false
	var err error
	if p, ok := byName[secCH]; ok && chx == nil {
		start := time.Now()
		chx, err = ch.Read(src(p), e.G)
		if err != nil {
			return fmt.Errorf("%w: section %s: %v", snapshot.ErrBadSnapshot, secCH, err)
		}
		chTime, chLoaded = time.Since(start), true
	}
	if _, ok := byName[secTNR]; ok && chx == nil {
		return fmt.Errorf("%w: snapshot has a TNR section but no CH section to share its hierarchy", snapshot.ErrBadSnapshot)
	}

	// Remaining sections decode in parallel, one goroutine per section.
	type result struct {
		name string
		idx  any
		took time.Duration
		err  error
	}
	decoders := map[string]func(p snapshot.Payload) (any, error){
		secGtree: func(p snapshot.Payload) (any, error) { return gtree.Read(src(p), e.G) },
		secROAD:  func(p snapshot.Payload) (any, error) { return road.Read(src(p), e.G) },
		secSILC:  func(p snapshot.Payload) (any, error) { return silc.Read(src(p), e.G) },
		secPHL:   func(p snapshot.Payload) (any, error) { return phl.Read(src(p), e.G.NumVertices()) },
		secTNR:   func(p snapshot.Payload) (any, error) { return tnr.Read(src(p), chx, e.G.NumVertices()) },
	}
	results := make(chan result, len(byName))
	launched := 0
	for name, decode := range decoders {
		p, ok := byName[name]
		if !ok {
			continue
		}
		launched++
		go func(name string, decode func(snapshot.Payload) (any, error), p snapshot.Payload) {
			start := time.Now()
			idx, err := decode(p)
			results <- result{name: name, idx: idx, took: time.Since(start), err: err}
		}(name, decode, p)
	}
	decoded := make(map[string]result, launched)
	for i := 0; i < launched; i++ {
		res := <-results
		if res.err != nil {
			err = fmt.Errorf("%w: section %s: %v", snapshot.ErrBadSnapshot, res.name, res.err)
		}
		decoded[res.name] = res
	}
	if err != nil {
		return err
	}

	// Install atomically: only indexes the engine has not built yet.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.loaded == nil {
		e.loaded = map[string]bool{}
	}
	if chLoaded && e.chx == nil {
		e.chx = chx
		e.BuildTimes[secCH] = chTime
		e.loaded[secCH] = true
	}
	if res, ok := decoded[secGtree]; ok && e.gt == nil {
		e.gt = res.idx.(*gtree.Index)
		e.BuildTimes[secGtree] = res.took
		e.loaded[secGtree] = true
	}
	if res, ok := decoded[secROAD]; ok && e.rd == nil {
		e.rd = res.idx.(*road.Index)
		e.BuildTimes[secROAD] = res.took
		e.loaded[secROAD] = true
	}
	if res, ok := decoded[secSILC]; ok && e.sc == nil {
		e.sc = res.idx.(*silc.Index)
		e.BuildTimes[secSILC] = res.took
		e.loaded[secSILC] = true
	}
	if res, ok := decoded[secPHL]; ok && e.phlx == nil {
		e.phlx = res.idx.(*phl.Index)
		e.BuildTimes[secPHL] = res.took
		e.loaded[secPHL] = true
	}
	if res, ok := decoded[secTNR]; ok && e.tnrx == nil {
		e.tnrx = res.idx.(*tnr.Index)
		e.BuildTimes[secTNR] = res.took
		e.loaded[secTNR] = true
	}
	return nil
}
