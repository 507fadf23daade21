package snapio

import (
	"bytes"
	"slices"
	"testing"
)

// TestRawBigEndianBranch runs WriteRaw and ReadRaw down the branch a
// big-endian host takes, whatever host runs the test: each written element
// must be the element's in-memory bytes reversed, and ReadRaw must turn
// them back into the same values.
func TestRawBigEndianBranch(t *testing.T) {
	saved := hostLittleEndian
	hostLittleEndian = false
	t.Cleanup(func() { hostLittleEndian = saved })
	checkReversed(t, 4, []int32{5, -1, 1 << 30})
	checkReversed(t, 8, []int64{1, -2, 1 << 40})
	checkReversed(t, 8, []float64{0.5, -3.25, 1e300})
}

func checkReversed[T rawElem](t *testing.T, size int, vs []T) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteRaw(w, vs)
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	mem := rawBytes(vs)
	want := make([]byte, len(mem))
	for i := range want {
		elem, j := i/size, i%size
		want[i] = mem[elem*size+size-1-j]
	}
	// The count and its padding fill the first 64 bytes.
	if got := buf.Bytes()[64:]; !bytes.Equal(got, want) {
		t.Fatalf("%T: written % x, want % x", vs, got, want)
	}
	s := NewSource(buf.Bytes(), true)
	if back := ReadRaw[T](s); !slices.Equal(back, vs) || s.Err() != nil {
		t.Fatalf("%T: read back %v (err %v), want %v", vs, back, s.Err(), vs)
	}
}
