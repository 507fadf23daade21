// Package snapio provides the little-endian binary primitives shared by the
// index snapshot codecs (internal/snapshot and the per-index WriteTo/Read
// pairs): an error-sticky Writer that counts bytes, and a Source (source.go)
// that bounds every slice by the bytes actually remaining in its payload, so
// a corrupt length prefix fails cleanly instead of attempting a huge
// allocation.
//
// All multi-byte values are little endian. Arrays are encoded as a uint32
// element count, zero padding to the next 64-byte boundary, then the raw
// elements; strings as a uint32 byte count followed by the bytes; bools as
// one byte (0 or 1).
package snapio

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores multi-byte
// integers little endian — the precondition for writing raw array bytes
// verbatim and for aliasing mapped snapshot bytes as typed slices.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// HostLittleEndian reports whether the running machine is little endian.
// Codecs with array-of-struct payloads use it to pick between writing the
// struct bytes verbatim and a field-wise little-endian fallback.
func HostLittleEndian() bool { return hostLittleEndian }

// ErrCorrupt reports a structurally invalid or truncated byte stream. Codec
// decode errors wrap it (and internal/snapshot folds it into ErrBadSnapshot).
var ErrCorrupt = errors.New("snapio: corrupt data")

// Writer serializes primitives to an io.Writer. The first write error
// sticks; check Result once at the end.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

const writerChunk = 1 << 16

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, writerChunk)}
}

func (w *Writer) flushIfFull() {
	if len(w.buf) >= writerChunk {
		w.Flush()
	}
}

// Flush writes any buffered bytes through to the underlying writer.
func (w *Writer) Flush() {
	if w.err != nil || len(w.buf) == 0 {
		w.buf = w.buf[:0]
		return
	}
	_, err := w.w.Write(w.buf)
	if err != nil {
		w.err = err
	}
	w.n += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// Result flushes and returns the total byte count and the first error.
func (w *Writer) Result() (int64, error) {
	w.Flush()
	return w.n, w.err
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf = append(w.buf, v)
	w.flushIfFull()
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	w.U8(b)
}

// U16 writes a uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	w.flushIfFull()
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	w.flushIfFull()
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.flushIfFull()
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	w.flushIfFull()
}

// Offset returns the number of bytes written so far, including buffered
// bytes not yet flushed. Codecs use it to compute alignment padding
// relative to the start of their payload.
func (w *Writer) Offset() int64 { return w.n + int64(len(w.buf)) }

// Align64 pads with zero bytes to the next 64-byte boundary (relative to
// the start of the stream). Raw array writers call it so the element bytes
// land 64-byte-aligned when the payload itself starts on a 64-byte file
// offset — the contract the mmap loader's aliased reads depend on.
func (w *Writer) Align64() {
	pad := int((-w.Offset()) & 63)
	for i := 0; i < pad; i++ {
		w.buf = append(w.buf, 0)
	}
	w.flushIfFull()
}

// RawBytes writes b verbatim. Large slices bypass the chunk buffer.
func (w *Writer) RawBytes(b []byte) {
	if w.err != nil {
		return
	}
	if len(b) < writerChunk {
		w.buf = append(w.buf, b...)
		w.flushIfFull()
		return
	}
	w.Flush()
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.n += int64(len(b))
}

// rawElem is an element type of the raw-array layout.
type rawElem interface{ int32 | int64 | float64 }

// rawBytes views vs as its in-memory bytes.
func rawBytes[T rawElem](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*int(unsafe.Sizeof(*new(T))))
}

// reverseElems reverses the bytes of each size-byte element of b in place,
// converting between host and little-endian order on a big-endian host.
func reverseElems(b []byte, size int) {
	for i := 0; i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// WriteRaw writes a uint32 count, pads to a 64-byte boundary, then the raw
// little-endian element bytes — the layout ReadRaw maps without copying.
func WriteRaw[T rawElem](w *Writer, vs []T) {
	w.U32(uint32(len(vs)))
	w.Align64()
	b := rawBytes(vs)
	if !hostLittleEndian {
		b = slices.Clone(b)
		reverseElems(b, int(unsafe.Sizeof(*new(T))))
	}
	w.RawBytes(b)
}
