package snapshot_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/snapshot"
)

func sec(name string, data []byte) snapshot.Section {
	return snapshot.Section{Name: name, Encode: func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}}
}

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	secs := []snapshot.Section{
		sec("alpha", []byte("payload one")),
		sec("beta", bytes.Repeat([]byte{7}, 100_000)),
		sec("empty", nil),
	}
	if err := snapshot.Write(&buf, 0xfeed, secs); err != nil {
		t.Fatal(err)
	}
	fp, got, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0xfeed {
		t.Fatalf("fingerprint %x", fp)
	}
	if len(got) != 3 {
		t.Fatalf("got %d sections", len(got))
	}
	if got[0].Name != "alpha" || string(got[0].Data) != "payload one" {
		t.Fatalf("section 0: %q %q", got[0].Name, got[0].Data)
	}
	if got[1].Name != "beta" || len(got[1].Data) != 100_000 {
		t.Fatalf("section 1: %q %d", got[1].Name, len(got[1].Data))
	}
	if got[2].Name != "empty" || len(got[2].Data) != 0 {
		t.Fatalf("section 2: %q %d", got[2].Name, len(got[2].Data))
	}
}

// TestFingerprintMismatch: Parse reports the container's fingerprint
// whether or not checksums are verified, so a caller (core.LoadIndexesData)
// can refuse one that is not its graph's with ErrFingerprintMismatch.
func TestFingerprintMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, 1, []snapshot.Section{sec("a", []byte("x"))}); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{true, false} {
		if fp, _, err := snapshot.Parse(buf.Bytes(), verify); err != nil || fp != 1 {
			t.Fatalf("verify=%v: fingerprint %d, err %v; want 1", verify, fp, err)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, row := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { copy(b, "NOPE") }},
		{"unknown version", func(b []byte) { b[4] = 99 }},
		{"retired version 1", func(b []byte) { b[4] = 1 }},
	} {
		bad := append([]byte(nil), data...)
		row.mutate(bad)
		if _, _, err := snapshot.Parse(bad, true); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: Parse: %v", row.name, err)
		}
	}
}

func TestTruncationAndChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, 9, []snapshot.Section{sec("a", bytes.Repeat([]byte{3}, 1000))}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, 25, len(data) - 1} {
		// A cut inside the header or the section table, and one inside the
		// payload: the section then runs past the end of the data.
		for _, verify := range []bool{true, false} {
			if _, _, err := snapshot.Parse(data[:cut], verify); !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("truncate %d (verify=%v): %v", cut, verify, err)
			}
		}
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)-10] ^= 0xff // inside the payload
	if _, _, err := snapshot.Parse(flip, true); !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("checksum: %v", err)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	var buf bytes.Buffer
	err := snapshot.Write(&buf, 1, []snapshot.Section{sec("a", nil), sec("a", nil)})
	if !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("want ErrBadSnapshot, got %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := gen.Network(gen.NetworkSpec{Name: "fp", Rows: 6, Cols: 6, Seed: 1})
	same := gen.Network(gen.NetworkSpec{Name: "fp", Rows: 6, Cols: 6, Seed: 1})
	if snapshot.Fingerprint(base) != snapshot.Fingerprint(same) {
		t.Fatal("fingerprint not deterministic")
	}
	cases := map[string]uint64{
		"other seed": snapshot.Fingerprint(gen.Network(gen.NetworkSpec{Name: "fp", Rows: 6, Cols: 6, Seed: 2})),
		"other name": snapshot.Fingerprint(gen.Network(gen.NetworkSpec{Name: "fq", Rows: 6, Cols: 6, Seed: 1})),
		"other size": snapshot.Fingerprint(gen.Network(gen.NetworkSpec{Name: "fp", Rows: 6, Cols: 7, Seed: 1})),
	}
	fp := snapshot.Fingerprint(base)
	for what, other := range cases {
		if other == fp {
			t.Fatalf("fingerprint insensitive to %s", what)
		}
	}
}
