package snapio_test

import (
	"bytes"
	"testing"

	"rnknn/internal/snapio"
)

// buildRawStream writes a mixed scalar/raw-array payload the way index
// codecs do, returning the encoded bytes.
func buildRawStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U16(2)
	w.Bool(true)
	snapio.WriteRaw(w, []int32{5, -1, 7, 1 << 30})
	w.String("tag")
	snapio.WriteRaw(w, []float64{0.5, -3.25})
	snapio.WriteRaw(w, []int64{1, 2, 3})
	w.U32(99)
	w.Flush()
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkStream(t *testing.T, s *snapio.Source) {
	t.Helper()
	if v := s.U16(); v != 2 {
		t.Fatalf("U16 = %d", v)
	}
	if !s.Bool() {
		t.Fatal("Bool = false")
	}
	i32s := snapio.ReadRaw[int32](s)
	if len(i32s) != 4 || i32s[0] != 5 || i32s[1] != -1 || i32s[3] != 1<<30 {
		t.Fatalf("ReadRaw[int32] = %v", i32s)
	}
	if v := s.String(); v != "tag" {
		t.Fatalf("String = %q", v)
	}
	f64s := snapio.ReadRaw[float64](s)
	if len(f64s) != 2 || f64s[0] != 0.5 || f64s[1] != -3.25 {
		t.Fatalf("ReadRaw[float64] = %v", f64s)
	}
	i64s := snapio.ReadRaw[int64](s)
	if len(i64s) != 3 || i64s[2] != 3 {
		t.Fatalf("ReadRaw[int64] = %v", i64s)
	}
	if v := s.U32(); v != 99 {
		t.Fatalf("U32 = %d", v)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 0 {
		t.Fatalf("%d bytes left over", s.Remaining())
	}
}

// TestSourceCopyMode decodes the raw-array layout with aliasing off: every
// array is a private copy, and the values round-trip on any host.
func TestSourceCopyMode(t *testing.T) {
	checkStream(t, snapio.NewSource(buildRawStream(t), false))
}

// TestSourceAliasMode decodes with aliasing on: the same values come back,
// and on a little-endian host with aligned backing the arrays are views of
// the input buffer — writing through the decoded slice is visible to a
// second decode of the same bytes, proving zero-copy.
func TestSourceAliasMode(t *testing.T) {
	data := buildRawStream(t)
	s := snapio.NewSource(data, true)
	checkStream(t, s)

	if !snapio.HostLittleEndian() {
		t.Skip("alias views require a little-endian host")
	}
	s2 := snapio.NewSource(data, true)
	if !s2.Aliasing() {
		t.Fatal("Aliasing() = false on LE host")
	}
	s2.U16()
	s2.Bool()
	i32s := snapio.ReadRaw[int32](s2)
	old := i32s[0]
	i32s[0] = old + 1
	s3 := snapio.NewSource(data, true)
	s3.U16()
	s3.Bool()
	if again := snapio.ReadRaw[int32](s3); again[0] != old+1 {
		t.Fatalf("aliased write not visible: %d want %d", again[0], old+1)
	}
	i32s[0] = old
}

// TestSourceTruncation: a cut-off stream fails with an error instead of
// panicking, wherever the cut lands.
func TestSourceTruncation(t *testing.T) {
	data := buildRawStream(t)
	for cut := 0; cut < len(data); cut += 7 {
		s := snapio.NewSource(data[:cut], false)
		s.U16()
		s.Bool()
		snapio.ReadRaw[int32](s)
		_ = s.String()
		snapio.ReadRaw[float64](s)
		snapio.ReadRaw[int64](s)
		s.U32()
		if s.Err() == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
	}
}

// TestSourceCountOverflow: a length prefix implying more bytes than the
// buffer holds errors out instead of allocating.
func TestSourceCountOverflow(t *testing.T) {
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U32(0xffff_ffff) // absurd element count
	w.Flush()
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	s := snapio.NewSource(buf.Bytes(), false)
	if out := snapio.ReadRaw[int32](s); s.Err() == nil || out != nil {
		t.Fatalf("overflow accepted: %v", s.Err())
	}
}

// TestWriterOffsetAlign64 pins the writer-side alignment bookkeeping the
// raw layout depends on: Offset counts through buffered and flushed bytes,
// and Align64 lands on 64-byte boundaries.
func TestWriterOffsetAlign64(t *testing.T) {
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U8(1)
	if w.Offset() != 1 {
		t.Fatalf("Offset = %d", w.Offset())
	}
	w.Align64()
	if w.Offset() != 64 {
		t.Fatalf("Offset after Align64 = %d", w.Offset())
	}
	w.RawBytes(bytes.Repeat([]byte{7}, 100))
	w.Align64()
	if w.Offset() != 192 {
		t.Fatalf("Offset = %d, want 192", w.Offset())
	}
	w.Flush()
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != w.Offset() {
		t.Fatalf("buffer %d bytes, offset %d", buf.Len(), w.Offset())
	}
}

// TestRangeRule: ReadIndex refuses an element outside [0, n) on the copy
// and the alias path alike, CheckOffsets refuses every way an offset table
// can slice out of bounds, and Version refuses a codec version other than
// the one asked for.
func TestRangeRule(t *testing.T) {
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U16(2)
	snapio.WriteRaw(w, []int32{0, 3, 4})
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	for _, alias := range []bool{false, true} {
		for n, ok := range map[int]bool{5: true, 4: false, 0: false, -1: false} {
			s := snapio.NewSource(buf.Bytes(), alias)
			s.Version("test", 2)
			s.ReadIndex(n, "idx")
			if (s.Err() == nil) != ok {
				t.Errorf("alias=%v: ReadIndex(%d) err = %v, want ok=%v", alias, n, s.Err(), ok)
			}
		}
	}
	s := snapio.NewSource(buf.Bytes(), false)
	if s.Version("test", 1); s.Err() == nil {
		t.Error("Version accepted codec version 2 as 1")
	}
	if !snapio.Below([]int32{0, 4}, 5) || snapio.Below([]int32{-1}, 5) || snapio.Below([]int32{0}, 0) {
		t.Error("Below disagrees with [0, n)")
	}

	for _, c := range []struct {
		name     string
		off      []int32
		n, total int
		ok       bool
	}{
		{"valid", []int32{0, 2, 2, 5}, 3, 5, true},
		{"no items", []int32{0}, 0, 0, true},
		{"short", []int32{0, 2, 5}, 3, 5, false},
		{"nil", nil, 0, 0, false},
		{"off[0] != 0", []int32{1, 2, 2, 5}, 3, 5, false},
		{"off[n] != total", []int32{0, 2, 2, 4}, 3, 5, false},
		{"not monotone", []int32{0, 5, 2, 5}, 3, 5, false},
		{"negative n", []int32{0}, -1, 0, false},
	} {
		s := snapio.NewSource(nil, false)
		if got := s.CheckOffsets(c.off, c.n, c.total, "csr"); got != c.ok || (s.Err() == nil) != c.ok {
			t.Errorf("%s: CheckOffsets = %v, err %v; want %v", c.name, got, s.Err(), c.ok)
		}
	}
}
