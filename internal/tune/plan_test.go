package tune

import (
	"os"
	"strings"
	"testing"
)

// validFile builds a small in-memory plan file for codec tests.
func validFile() File {
	cells := PinnedCells("ARM-N1")
	plans := CandidatePlans()
	var cps []CellPlan
	for i, c := range cells[:3] {
		cps = append(cps, CellPlan{
			Cell: c.Cell, Size: c.Size, Plan: plans[i%len(plans)],
			BaselineUS: 10 + float64(i), TunedUS: 8 + float64(i),
		})
	}
	return File{Version: FileVersion, Platform: "ARM-N1", Cells: cps}
}

func TestPlanFileRoundTrip(t *testing.T) {
	f := validFile()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", data, again)
	}
}

// TestDecodeRejects pins the strict-parse contract: every malformed input
// is a hard error naming the problem — never a silent fallback.
func TestDecodeRejects(t *testing.T) {
	valid, err := validFile().Encode()
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, data []byte, wantSub string) {
		t.Helper()
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		} else if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	reject("truncated", valid[:len(valid)/2], "")
	reject("trailing-garbage", append(append([]byte{}, valid...), []byte("{}")...), "trailing")
	reject("version-skew", []byte(strings.Replace(string(valid), `"version": 2`, `"version": 3`, 1)), "version")
	reject("unknown-knob", []byte(strings.Replace(string(valid), `"cico_threshold"`, `"cico_limit"`, 1)), "unknown field")
	reject("removed-knob", withGroupSize(valid), "unknown field")
	// A version-1 file carries the four knobs version 2 dropped, and its
	// version alone is skew.
	v1, err := os.ReadFile("testdata/ARM-N1.v1.json")
	if err != nil {
		t.Fatal(err)
	}
	reject("v1-file", v1, "unknown field")
	reject("v1-version", []byte(strings.Replace(string(valid), `"version": 2`, `"version": 1`, 1)), "version")
	reject("bad-platform", []byte(strings.ReplaceAll(string(valid), `"ARM-N1"`, `"VAX-11"`)), "platform")
	reject("empty", nil, "")

	bad := validFile()
	bad.Cells[0].Plan.ChunkBytes = []int{-4096}
	if _, err := bad.Encode(); err == nil {
		t.Error("encode accepted a negative chunk size")
	}
	dup := validFile()
	dup.Cells = append(dup.Cells, dup.Cells[0])
	if _, err := dup.Encode(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate cell not rejected: %v", err)
	}
	cico := validFile()
	cico.Cells[0].Plan.CICOBytes = 2*cico.Cells[0].Plan.CICOThreshold - 1
	if _, err := cico.Encode(); err == nil || !strings.Contains(err.Error(), "double-buffer") {
		t.Errorf("CICO buffer below two threshold payloads not rejected: %v", err)
	}
	class := validFile()
	class.Cells[0].SizeClass = ClassLarge
	if _, err := class.Encode(); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("mislabeled size class not rejected: %v", err)
	}
}

// withGroupSize re-inserts the gxhc group-size knob that version 2 of the
// plan file dropped, so the strict codec stays pinned on a removed knob.
func withGroupSize(valid []byte) []byte {
	return []byte(strings.Replace(string(valid), `"cico_threshold"`, `"group_size": 8, "cico_threshold"`, 1))
}

func TestLookup(t *testing.T) {
	f := File{Version: FileVersion, Platform: "ARM-N1", Cells: []CellPlan{{
		Cell: Cell{Platform: "ARM-N1", Collective: "bcast", SizeClass: ClassMedium},
		Size: 8 << 10, Plan: DefaultPlan(),
	}}}
	if _, ok := f.Lookup("bcast", 4<<10); !ok {
		t.Error("medium-class size 4K not covered by the medium cell")
	}
	if _, ok := f.Lookup("bcast", 4); ok {
		t.Error("small-class lookup matched the medium cell")
	}
	if _, ok := f.Lookup("scatter", 8<<10); ok {
		t.Error("unknown collective matched")
	}
}

// FuzzPlanFile fuzzes the strict plan-file parser: Decode must never
// panic, and anything it accepts must survive a byte-identical
// encode/decode round trip (the determinism the repro gate rests on).
func FuzzPlanFile(f *testing.F) {
	valid, err := validFile().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 99, "platform": "ARM-N1", "cells": null}`))
	f.Add([]byte(strings.Replace(string(valid), `"cico_threshold"`, `"cico_limit"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"size_class": "small"`, `"size_class": "huge"`, 1)))
	f.Add([]byte(strings.ReplaceAll(string(valid), `8`, `-8`)))
	f.Add(append(append([]byte{}, valid...), '{', '}'))
	f.Add(withGroupSize(valid))
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := pf.Encode()
		if err != nil {
			t.Fatalf("accepted file failed to re-encode: %v", err)
		}
		pf2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded file failed to decode: %v", err)
		}
		enc2, err := pf2.Encode()
		if err != nil || string(enc2) != string(enc) {
			t.Fatalf("plan file round trip not byte-identical (err %v)", err)
		}
	})
}
