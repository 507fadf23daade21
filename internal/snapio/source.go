// Source: a byte-slice decoder for snapshot payloads. It reads Writer's
// scalar primitives and the aligned raw-array layout of the mappable
// sections (WriteRaw): a uint32 count, zero padding to the next 64-byte
// boundary, then raw little-endian element bytes. In alias mode ReadRaw
// and AlignedRaw return slices whose backing array IS the source bytes —
// zero copy, so decoding a section mapped from disk touches only the
// pages its checks read — and in copy mode (big-endian hosts, misaligned
// data, or callers that want private memory) ReadRaw copies them into
// fresh slices.
//
// Aliased slices are views of a read-only mapping when the source came
// from internal/mapped: writing to them faults. Treat every decoded index
// as immutable, which they already are.
//
// The range rule every codec follows: an array the query path subscripts
// or slices by is checked in full on both paths, through ReadIndex (every
// element in [0, n)) or CheckOffsets (a CSR offset table), so a decoded
// index cannot access memory out of bounds whatever the file held. Arrays
// that are only compared, or masked where they are used, are content: a
// codec may scan them when !Aliasing() and trust them on a mapping, where
// the scan would fault in every page.
package snapio

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Source decodes primitives from an in-memory byte slice. The first error
// sticks and subsequent reads return zero values; check Err at the end.
type Source struct {
	data  []byte
	off   int
	alias bool
	err   error
}

// NewSource returns a Source over data. When alias is true (and the host
// is little endian), raw-array reads return slices aliasing data instead of
// copying; data must then outlive everything decoded from it.
func NewSource(data []byte, alias bool) *Source {
	return &Source{data: data, alias: alias && hostLittleEndian}
}

// Err returns the first error encountered, if any.
func (s *Source) Err() error { return s.err }

// Aliasing reports whether raw-array reads may return views of the source
// bytes (alias mode requested and host is little endian).
func (s *Source) Aliasing() bool { return s.alias }

// Remaining returns the number of undecoded bytes.
func (s *Source) Remaining() int { return len(s.data) - s.off }

// Failf records a corruption error (used by codecs for semantic checks).
// Only the first error sticks, so a check after a failed read may fail
// again harmlessly.
func (s *Source) Failf(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes, failing on truncation.
func (s *Source) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if n < 0 || len(s.data)-s.off < n {
		s.Failf("need %d bytes at offset %d, have %d", n, s.off, len(s.data)-s.off)
		return nil
	}
	b := s.data[s.off : s.off+n]
	s.off += n
	return b
}

// U8 reads one byte.
func (s *Source) U8() uint8 {
	b := s.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (s *Source) Bool() bool { return s.U8() != 0 }

// U16 reads a uint16.
func (s *Source) U16() uint16 {
	b := s.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (s *Source) U32() uint32 {
	b := s.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (s *Source) U64() uint64 {
	b := s.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a slice length prefix and validates that elemSize*count
// bytes can still follow (padding aside).
func (s *Source) count(elemSize int) int {
	n := int(s.U32())
	if s.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(s.Remaining()) {
		s.Failf("length prefix %d exceeds remaining %d bytes", n, s.Remaining())
		return 0
	}
	return n
}

// Version reads a section's u16 codec version and fails unless it is want.
func (s *Source) Version(section string, want uint16) {
	if v := s.U16(); s.err == nil && v != want {
		s.Failf("%s codec version %d (want %d)", section, v, want)
	}
}

// String reads a length-prefixed string.
func (s *Source) String() string {
	n := s.count(1)
	if s.err != nil || n == 0 {
		return ""
	}
	return string(s.take(n))
}

// align64 skips padding up to the next 64-byte boundary of the stream.
func (s *Source) align64() {
	if s.err != nil {
		return
	}
	pad := (-s.off) & 63
	s.take(pad)
}

// aligned reports whether p is aligned for loads of the given alignment.
func aligned(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// AlignedRaw reads an array written as count + 64-byte padding + raw
// little-endian elements of elemSize bytes, returning the element count
// and the raw bytes. In alias mode (and when the bytes satisfy elemAlign)
// the returned slice is a view of the source; aliased reports which.
// Codecs with array-of-struct payloads use this directly; typed arrays use
// ReadRaw.
func (s *Source) AlignedRaw(elemSize int, elemAlign uintptr) (n int, b []byte, aliased bool) {
	n = s.count(elemSize)
	s.align64()
	if s.err != nil || n == 0 {
		return 0, nil, false
	}
	b = s.take(n * elemSize)
	if b == nil {
		return 0, nil, false
	}
	return n, b, s.alias && aligned(b, elemAlign)
}

// ReadRaw reads an array written by WriteRaw, aliasing the source bytes
// when possible (see Source) and copying them into a fresh slice otherwise.
func ReadRaw[T rawElem](s *Source) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n, b, ok := s.AlignedRaw(size, uintptr(size))
	if n == 0 {
		return nil
	}
	if ok {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	copy(rawBytes(out), b)
	if !hostLittleEndian {
		reverseElems(rawBytes(out), size)
	}
	return out
}

// ReadIndex reads an int32 array written by WriteRaw whose elements
// subscript something of size n, and fails unless every one lies in
// [0, n) — on both paths, reading each page of the array once.
func (s *Source) ReadIndex(n int, what string) []int32 {
	a := ReadRaw[int32](s)
	if i := outside(a, n); i >= 0 {
		s.Failf("%s[%d] = %d outside [0, %d)", what, i, a[i], n)
	}
	return a
}

// Below reports whether every element of a lies in [0, n): ReadIndex's
// check, for arrays whose bound differs from item to item.
func Below(a []int32, n int) bool { return outside(a, n) < 0 }

// outside returns the position of the first element of a outside [0, n),
// or -1.
func outside(a []int32, n int) int {
	for i, v := range a {
		if v < 0 || int(v) >= n {
			return i
		}
	}
	return -1
}

// CheckOffsets fails unless off is the offset table of n items over total
// entries — n+1 entries, off[0] = 0, off[n] = total, monotone — so that
// slicing item i as [off[i], off[i+1]) stays in bounds. It reports whether
// off passed, and does nothing once the source has failed.
func (s *Source) CheckOffsets(off []int32, n, total int, what string) bool {
	if s.err != nil {
		return false
	}
	if n < 0 || len(off) != n+1 || off[0] != 0 || int(off[n]) != total {
		s.Failf("%s offsets: %d entries for %d items over %d", what, len(off), n, total)
		return false
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			s.Failf("%s offsets not monotone at %d", what, i)
			return false
		}
	}
	return true
}
