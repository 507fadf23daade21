// Package snapshot frames the versioned, self-describing container that
// persists built road-network indexes (see docs/SNAPSHOT_FORMAT.md for the
// byte-level specification and the compatibility policy).
//
// A snapshot is: magic "RNKS", a format version, the fingerprint of the
// graph the indexes were built over, a section table (name, declared
// dependencies, flags, absolute payload offset, payload length, CRC-32C),
// and the section payloads, each starting on a 64-byte-aligned file
// offset. Sections are encoded in parallel across CPU cores at write time
// and checksum-verified in parallel at read time; the payload bytes
// themselves are each index's own WriteTo encoding.
//
// Because every payload starts 64-byte aligned, a payload whose codec
// emits its arrays with Writer.Align64 padding has those arrays 64-byte
// aligned in the file — which is what lets Parse hand out payload views of
// an mmap'ed snapshot that internal codecs alias as typed slices with zero
// copy (sections flagged Mappable). Version 1 snapshots (no alignment, no
// dependency declarations) are rejected.
//
// The container knows nothing about index internals: callers (core.Engine)
// map section names to codecs. Unknown section names are preserved for the
// caller, which may skip them — that is what lets future snapshots add new
// index kinds without a format-version bump. A section's declared
// dependencies, however, are validated here: each must name a section that
// appears earlier in the table, so cross-section decode ordering (TNR
// needs CH's hierarchy) is a checked property of the file rather than a
// writer convention.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"rnknn/internal/graph"
)

// Magic starts every snapshot file.
const Magic = "RNKS"

// Version is the container format version this package writes, and the only
// one Parse accepts.
const Version = 2

// maxSections bounds the section table so a corrupt count cannot drive a
// huge allocation.
const maxSections = 64

// FlagMappable marks a section whose payload uses the aligned raw-array
// layout (snapio Writer.Raw*), safe to alias from an mmap'ed file.
const FlagMappable = uint32(1 << 0)

var (
	// ErrBadSnapshot reports a snapshot that is not parseable: wrong magic,
	// unsupported version, truncated data, a checksum mismatch, a section
	// dependency that is missing or out of order, or a section payload its
	// codec rejects.
	ErrBadSnapshot = errors.New("snapshot: malformed or corrupt snapshot")
	// ErrFingerprintMismatch reports a structurally valid snapshot whose
	// indexes were built over a different graph than the one being loaded.
	ErrFingerprintMismatch = errors.New("snapshot: graph fingerprint mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint hashes everything an index build depends on — name, active
// weight kind, topology, both weight arrays, and vertex coordinates — so a
// snapshot can only be loaded against the graph it was built from. FNV-64a
// over the little-endian encoding of each array.
func Fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	// Batch the element encodings through one buffer: a h.Write per element
	// would cost an interface call per 4 bytes on multi-million-edge graphs.
	buf := make([]byte, 0, 1<<16)
	flushAt := func(headroom int) {
		if len(buf)+headroom > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	u64 := func(v uint64) {
		flushAt(8)
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = append(buf, "rnknn-graph-fingerprint-v1"...)
	buf = append(buf, g.Name...)
	u64(uint64(g.Kind))
	u64(uint64(g.NumVertices()))
	u64(uint64(g.NumEdges()))
	for _, arr := range [][]int32{g.Offsets, g.Targets, g.DistW, g.TimeW} {
		for _, v := range arr {
			flushAt(4)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	for _, arr := range [][]float64{g.X, g.Y} {
		for _, v := range arr {
			u64(math.Float64bits(v))
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// Section is one named payload to write: Encode streams the index's bytes.
// Deps names sections this one needs decoded first; Write records them in
// the table and readers enforce that each appears earlier. Mappable marks
// payloads laid out with aligned raw arrays (safe to alias when mapped).
type Section struct {
	Name     string
	Encode   func(w io.Writer) error
	Deps     []string
	Mappable bool
}

// Payload is one named section read back from a snapshot by Parse, which
// leaves checksum verification to the caller's choice (an mmap'ed open
// skips it — checksumming would fault in every page). Data aliases the
// parsed buffer.
type Payload struct {
	Name     string
	Data     []byte
	Mappable bool
}

// align64 rounds n up to the next multiple of 64.
func align64(n uint64) uint64 { return (n + 63) &^ 63 }

// Write encodes every section (in parallel, one goroutine per section — the
// Go scheduler spreads them across cores) and frames them into w with the
// graph fingerprint. Section names must be unique, non-empty, and at most
// 255 bytes. Section order is preserved verbatim — including a Deps order
// violation, which readers reject; callers are responsible for appending
// dependencies before dependents.
func Write(w io.Writer, fingerprint uint64, sections []Section) error {
	if len(sections) > maxSections {
		return fmt.Errorf("%w: %d sections exceeds the limit of %d", ErrBadSnapshot, len(sections), maxSections)
	}
	seen := map[string]bool{}
	for _, s := range sections {
		if s.Name == "" || len(s.Name) > 255 || seen[s.Name] {
			return fmt.Errorf("%w: invalid or duplicate section name %q", ErrBadSnapshot, s.Name)
		}
		seen[s.Name] = true
		if len(s.Deps) > 255 {
			return fmt.Errorf("%w: section %q declares %d dependencies", ErrBadSnapshot, s.Name, len(s.Deps))
		}
		for _, d := range s.Deps {
			if d == "" || len(d) > 255 {
				return fmt.Errorf("%w: section %q has invalid dependency name %q", ErrBadSnapshot, s.Name, d)
			}
		}
	}

	bufs := make([]bytes.Buffer, len(sections))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, s := range sections {
		wg.Add(1)
		go func(i int, s Section) {
			defer wg.Done()
			errs[i] = s.Encode(&bufs[i])
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("snapshot: encoding section %s: %w", sections[i].Name, err)
		}
	}

	// The header size is known exactly up front, so payload offsets can be
	// assigned before anything is written: each payload starts at the next
	// 64-byte boundary after its predecessor (or after the header).
	headerLen := uint64(4 + 4 + 8 + 4)
	for _, s := range sections {
		headerLen += 1 + uint64(len(s.Name)) + 1
		for _, d := range s.Deps {
			headerLen += 1 + uint64(len(d))
		}
		headerLen += 4 + 8 + 8 + 4 // flags, offset, length, crc
	}
	offsets := make([]uint64, len(sections))
	pos := headerLen
	for i := range sections {
		pos = align64(pos)
		offsets[i] = pos
		pos += uint64(bufs[i].Len())
	}

	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	le := binary.LittleEndian
	var scratch [8]byte
	u32 := func(v uint32) { le.PutUint32(scratch[:4], v); hdr.Write(scratch[:4]) }
	u64 := func(v uint64) { le.PutUint64(scratch[:], v); hdr.Write(scratch[:]) }
	u32(Version)
	u64(fingerprint)
	u32(uint32(len(sections)))
	for i, s := range sections {
		hdr.WriteByte(byte(len(s.Name)))
		hdr.WriteString(s.Name)
		hdr.WriteByte(byte(len(s.Deps)))
		for _, d := range s.Deps {
			hdr.WriteByte(byte(len(d)))
			hdr.WriteString(d)
		}
		var flags uint32
		if s.Mappable {
			flags |= FlagMappable
		}
		u32(flags)
		u64(offsets[i])
		u64(uint64(bufs[i].Len()))
		u32(crc32.Checksum(bufs[i].Bytes(), castagnoli))
	}
	if uint64(hdr.Len()) != headerLen {
		return fmt.Errorf("snapshot: internal error: header is %d bytes, computed %d", hdr.Len(), headerLen)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	var pad [64]byte
	written := headerLen
	for i := range bufs {
		if offsets[i] > written {
			if _, err := w.Write(pad[:offsets[i]-written]); err != nil {
				return err
			}
			written = offsets[i]
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		written += uint64(bufs[i].Len())
	}
	return nil
}

// tableEntry is one parsed section-table row; offsets are absolute file
// offsets.
type tableEntry struct {
	name     string
	deps     []string
	mappable bool
	off      uint64
	size     uint64
	crc      uint32
}

// readHeader parses the fixed header and section table from the start of r
// and returns the fingerprint and the entries with absolute payload
// offsets. Dependencies are validated here: each must name a section
// earlier in the table.
func readHeader(r *bytes.Reader) (fp uint64, entries []tableEntry, err error) {
	var hdr [4 + 4 + 8 + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if string(hdr[:4]) != Magic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, hdr[:4])
	}
	le := binary.LittleEndian
	if version := le.Uint32(hdr[4:8]); version != Version {
		return 0, nil, fmt.Errorf("%w: unsupported format version %d (want %d)", ErrBadSnapshot, version, Version)
	}
	fp = le.Uint64(hdr[8:16])
	count := int(le.Uint32(hdr[16:20]))
	if count < 0 || count > maxSections {
		return 0, nil, fmt.Errorf("%w: implausible section count %d", ErrBadSnapshot, count)
	}

	var scratch [8]byte
	readN := func(n int) ([]byte, error) {
		if _, err := io.ReadFull(r, scratch[:n]); err != nil {
			return nil, fmt.Errorf("%w: short section table: %v", ErrBadSnapshot, err)
		}
		return scratch[:n], nil
	}
	readName := func() (string, error) {
		b, err := readN(1)
		if err != nil {
			return "", err
		}
		name := make([]byte, b[0])
		if _, err := io.ReadFull(r, name); err != nil {
			return "", fmt.Errorf("%w: short section table: %v", ErrBadSnapshot, err)
		}
		return string(name), nil
	}

	entries = make([]tableEntry, count)
	position := make(map[string]int, count)
	for i := range entries {
		e := &entries[i]
		if e.name, err = readName(); err != nil {
			return 0, nil, err
		}
		if e.name == "" {
			return 0, nil, fmt.Errorf("%w: empty section name at entry %d", ErrBadSnapshot, i)
		}
		if _, dup := position[e.name]; dup {
			return 0, nil, fmt.Errorf("%w: duplicate section %q", ErrBadSnapshot, e.name)
		}
		b, err := readN(1)
		if err != nil {
			return 0, nil, err
		}
		ndeps := int(b[0])
		for d := 0; d < ndeps; d++ {
			dep, err := readName()
			if err != nil {
				return 0, nil, err
			}
			if _, ok := position[dep]; !ok {
				return 0, nil, fmt.Errorf("%w: section %q depends on %q, which does not appear earlier in the table", ErrBadSnapshot, e.name, dep)
			}
			e.deps = append(e.deps, dep)
		}
		if b, err = readN(4); err != nil {
			return 0, nil, err
		}
		e.mappable = le.Uint32(b)&FlagMappable != 0
		if b, err = readN(8); err != nil {
			return 0, nil, err
		}
		e.off = le.Uint64(b)
		if b, err = readN(8); err != nil {
			return 0, nil, err
		}
		e.size = le.Uint64(b)
		// Bounding size and offset keeps off+size from overflowing.
		if e.size > 1<<40 {
			return 0, nil, fmt.Errorf("%w: implausible section size %d", ErrBadSnapshot, e.size)
		}
		if b, err = readN(4); err != nil {
			return 0, nil, err
		}
		e.crc = le.Uint32(b)
		position[e.name] = i
	}
	pos := uint64(r.Size() - int64(r.Len())) // the header length
	for i := range entries {
		e := &entries[i]
		if e.off < pos || e.off > 1<<40 {
			return 0, nil, fmt.Errorf("%w: section %q offset %d overlaps preceding data", ErrBadSnapshot, e.name, e.off)
		}
		pos = e.off + e.size
	}
	return fp, entries, nil
}

// verifyCRCs checks every payload's checksum in parallel, one goroutine
// per section.
func verifyCRCs(payloads []Payload, entries []tableEntry) error {
	errs := make([]error, len(payloads))
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if crc32.Checksum(payloads[i].Data, castagnoli) != entries[i].crc {
				errs[i] = fmt.Errorf("%w: checksum mismatch in section %s", ErrBadSnapshot, payloads[i].Name)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Parse is the one snapshot reader. It reads a snapshot held whole in
// memory — read into the heap or mapped — and returns its fingerprint and
// sections, with each payload a view of data (no copies). A section that
// runs past the end of data, as in a truncated file, is ErrBadSnapshot.
// With verify set, checksums are validated in parallel; a caller opening
// an mmap'ed snapshot passes false, since checksumming would fault in
// every page and defeat the O(page-faults) warm start — mapped opens trust
// the file.
func Parse(data []byte, verify bool) (uint64, []Payload, error) {
	fp, entries, err := readHeader(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	payloads := make([]Payload, len(entries))
	for i, e := range entries {
		if e.off+e.size > uint64(len(data)) {
			return 0, nil, fmt.Errorf("%w: section %s [%d, %d) exceeds snapshot size %d", ErrBadSnapshot, e.name, e.off, e.off+e.size, len(data))
		}
		payloads[i] = Payload{Name: e.name, Data: data[e.off : e.off+e.size], Mappable: e.mappable}
	}
	if verify {
		if err := verifyCRCs(payloads, entries); err != nil {
			return 0, nil, err
		}
	}
	return fp, payloads, nil
}
