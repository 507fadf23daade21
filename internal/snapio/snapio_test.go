package snapio_test

import (
	"bytes"
	"testing"

	"rnknn/internal/snapio"
)

// TestRoundTrip writes every scalar primitive (and a raw float64 array and
// an empty one) and reads them back through a Source.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U8(200)
	w.Bool(true)
	w.Bool(false)
	w.U16(65_000)
	w.U32(4_000_000_000)
	w.U64(1 << 60)
	w.String("hello")
	w.String("")
	snapio.WriteRaw(w, []float64{1.5, -0.25})
	snapio.WriteRaw[int32](w, nil)
	if n, err := w.Result(); err != nil || n != int64(buf.Len()) {
		t.Fatalf("result n=%d err=%v buf=%d", n, err, buf.Len())
	}

	r := snapio.NewSource(buf.Bytes(), false)
	if got := r.U8(); got != 200 {
		t.Fatalf("U8 %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool")
	}
	if got := r.U16(); got != 65_000 {
		t.Fatalf("U16 %d", got)
	}
	if got := r.U32(); got != 4_000_000_000 {
		t.Fatalf("U32 %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("String %q", got)
	}
	if got := snapio.ReadRaw[float64](r); len(got) != 2 || got[0] != 1.5 || got[1] != -0.25 {
		t.Fatalf("ReadRaw[float64] %v", got)
	}
	if got := snapio.ReadRaw[int32](r); got != nil {
		t.Fatalf("empty ReadRaw[int32] %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorSticks(t *testing.T) {
	r := snapio.NewSource(nil, false)
	_ = r.U32()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.U64()
	if r.Err() != first {
		t.Fatal("error did not stick")
	}
}
