package snapshot_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"rnknn/internal/snapshot"
)

func depSec(name string, deps []string, mappable bool, data []byte) snapshot.Section {
	return snapshot.Section{
		Name:     name,
		Deps:     deps,
		Mappable: mappable,
		Encode: func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		},
	}
}

// TestPayloadAlignment verifies the v2 core property: every payload starts
// at a 64-byte-aligned file offset, whatever the preceding sections'
// lengths, so aligned raw arrays inside a payload stay aligned in the
// mapping.
func TestPayloadAlignment(t *testing.T) {
	var buf bytes.Buffer
	secs := []snapshot.Section{
		depSec("a", nil, true, bytes.Repeat([]byte{1}, 7)), // awkward length
		depSec("b", nil, true, bytes.Repeat([]byte{2}, 129)),
		depSec("c", nil, false, nil), // empty payload
		depSec("d", nil, true, bytes.Repeat([]byte{3}, 64)),
	}
	if err := snapshot.Write(&buf, 5, secs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	fp, payloads, err := snapshot.Parse(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 5 {
		t.Fatalf("fingerprint %d", fp)
	}
	if len(payloads) != 4 {
		t.Fatalf("got %d payloads", len(payloads))
	}
	for i, p := range payloads {
		if p.Mappable != secs[i].Mappable {
			t.Fatalf("payload %d (%s) mappable=%v, want %v", i, p.Name, p.Mappable, secs[i].Mappable)
		}
		if len(p.Data) == 0 {
			continue
		}
		// Parse aliases the input buffer, so the payload's file offset is
		// where its first byte sits inside data; it must be a multiple of 64.
		aligned := false
		for o := 0; o+len(p.Data) <= len(data); o += 64 {
			if &data[o] == &p.Data[0] {
				aligned = true
				break
			}
		}
		if !aligned {
			t.Fatalf("payload %d (%s) does not start at a 64-aligned offset", i, p.Name)
		}
	}
}

// TestDependencyOrdering pins the explicit section-dependency contract: a
// dependency must appear earlier in the table, and a container violating
// it (a reordered or hand-built snapshot listing TNR before the CH it
// depends on) is rejected as ErrBadSnapshot at header parse, before any
// payload is decoded.
func TestDependencyOrdering(t *testing.T) {
	// Correct order round-trips and preserves the dep metadata.
	var good bytes.Buffer
	err := snapshot.Write(&good, 1, []snapshot.Section{
		depSec("CH", nil, false, []byte("contraction")),
		depSec("TNR", []string{"CH"}, false, []byte("transit nodes")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, payloads, err := snapshot.Parse(good.Bytes(), true); err != nil || len(payloads) != 2 {
		t.Fatalf("valid dep order rejected: %v", err)
	}

	// Reversed order: Write preserves the order verbatim (validation is the
	// reader's job, so tests can craft bad containers), Parse must reject.
	var bad bytes.Buffer
	err = snapshot.Write(&bad, 1, []snapshot.Section{
		depSec("TNR", []string{"CH"}, false, []byte("transit nodes")),
		depSec("CH", nil, false, []byte("contraction")),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = snapshot.Parse(bad.Bytes(), true)
	if !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("want ErrBadSnapshot for TNR-before-CH, got %v", err)
	}
	if !strings.Contains(err.Error(), "depends on") {
		t.Fatalf("error should name the violated dependency: %v", err)
	}

	// A dependency on a section absent from the container is equally bad.
	var missing bytes.Buffer
	err = snapshot.Write(&missing, 1, []snapshot.Section{
		depSec("TNR", []string{"CH"}, false, []byte("x")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{true, false} {
		if _, _, err := snapshot.Parse(missing.Bytes(), verify); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("verify=%v: want ErrBadSnapshot for missing dep, got %v", verify, err)
		}
	}
}

// TestParseVerifyToggle: verify=true catches payload corruption, while
// verify=false (the mmap path, where a CRC pass would fault in every page)
// accepts it — trusting the file is the documented trade.
func TestParseVerifyToggle(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, 3, []snapshot.Section{depSec("a", nil, true, bytes.Repeat([]byte{9}, 512))}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)-5] ^= 0xff
	if _, _, err := snapshot.Parse(data, true); !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("verified Parse must catch corruption, got %v", err)
	}
	if _, payloads, err := snapshot.Parse(data, false); err != nil || len(payloads) != 1 {
		t.Fatalf("unverified Parse: %v (%d payloads)", err, len(payloads))
	}
}

// TestMappableFlagRoundTrip: the flag survives Write -> Parse and is false
// for sections that did not opt in.
func TestMappableFlagRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	err := snapshot.Write(&buf, 2, []snapshot.Section{
		depSec("flat", nil, true, []byte("aligned arrays")),
		depSec("stream", nil, false, []byte("bit-packed")),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, payloads, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !payloads[0].Mappable || payloads[1].Mappable {
		t.Fatalf("mappable flags: %v %v", payloads[0].Mappable, payloads[1].Mappable)
	}
}
