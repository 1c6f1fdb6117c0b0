package tune

import (
	"reflect"
	"testing"
	"testing/quick"
)

// splitmix64 steps the tests' deterministic pseudo-random stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genSamples derives a pseudo-random but valid sample set from one seed:
// cells from the pinned pool, plans from the candidate pool, means drawn
// positive. The same seed always yields the same set.
func genSamples(seed uint64) []Sample {
	cells := PinnedCells("ARM-N1")
	plans := CandidatePlans()
	rng := seed
	next := func() uint64 {
		rng = splitmix64(rng)
		return rng
	}
	n := int(next()%40) + 1
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		c := cells[next()%uint64(len(cells))]
		p := plans[next()%uint64(len(plans))]
		mean := float64(next()%1_000_000)/100 + 0.01
		out = append(out, Sample{
			Cell: c.Cell, Size: c.Size, Plan: p,
			MeanUS: mean, MinUS: mean * 0.9, MaxUS: mean * 1.1,
		})
	}
	return out
}

// permute reorders samples deterministically from the seed
// (Fisher-Yates over the split-mix stream).
func permute(in []Sample, seed uint64) []Sample {
	out := append([]Sample(nil), in...)
	rng := seed
	for i := len(out) - 1; i > 0; i-- {
		rng = splitmix64(rng)
		j := int(rng % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestSelectProperties pins Select's contract under testing/quick:
// totality (exactly one plan per distinct input cell), optimality (the
// winner beats or ties every sample of its cell, and never the default
// baseline when one was measured), permutation invariance, and a byte-
// identical round trip of the selected file through the plan-file codec.
func TestSelectProperties(t *testing.T) {
	prop := func(seed uint64) bool {
		samples := genSamples(seed)
		sel := Select(samples)

		distinct := map[string]bool{}
		for _, s := range samples {
			distinct[s.Cell.Key()] = true
		}
		if len(sel) != len(distinct) {
			t.Logf("seed %#x: %d cells selected, want %d", seed, len(sel), len(distinct))
			return false
		}
		byKey := map[string]CellPlan{}
		for _, cp := range sel {
			if _, dup := byKey[cp.Key()]; dup {
				t.Logf("seed %#x: duplicate cell %s", seed, cp.Key())
				return false
			}
			byKey[cp.Key()] = cp
		}
		for _, s := range samples {
			w := byKey[s.Cell.Key()]
			if w.TunedUS > s.MeanUS {
				t.Logf("seed %#x: winner %.2fus loses to sample %.2fus on %s", seed, w.TunedUS, s.MeanUS, s.Cell.Key())
				return false
			}
			if s.Plan.Name == "default" && w.BaselineUS > 0 && w.TunedUS > w.BaselineUS {
				t.Logf("seed %#x: winner regresses the measured baseline on %s", seed, s.Cell.Key())
				return false
			}
		}

		perm := Select(permute(samples, seed^0xdead))
		if !reflect.DeepEqual(sel, perm) {
			t.Logf("seed %#x: selection depends on sample order", seed)
			return false
		}

		f := File{Version: FileVersion, Platform: "ARM-N1", Cells: sel}
		data, err := f.Encode()
		if err != nil {
			t.Logf("seed %#x: encode: %v", seed, err)
			return false
		}
		got, err := Decode(data)
		if err != nil {
			t.Logf("seed %#x: decode: %v", seed, err)
			return false
		}
		again, err := got.Encode()
		if err != nil || string(again) != string(data) {
			t.Logf("seed %#x: plan file round trip not byte-identical (err %v)", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTieBreak pins the deterministic tie order: equal means fall
// back to the lexicographically smaller plan name.
func TestSelectTieBreak(t *testing.T) {
	cells := PinnedCells("ARM-N1")
	a, b := CandidatePlans()[3], CandidatePlans()[4] // chunk-4k, chunk-64k
	samples := []Sample{
		{Cell: cells[0].Cell, Size: cells[0].Size, Plan: b, MeanUS: 5},
		{Cell: cells[0].Cell, Size: cells[0].Size, Plan: a, MeanUS: 5},
	}
	sel := Select(samples)
	if len(sel) != 1 || sel[0].Plan.Name != "chunk-4k" {
		t.Fatalf("tie broke to %+v, want chunk-4k", sel)
	}
	if sel[0].BaselineUS != 0 {
		t.Fatalf("baseline invented without a default sample: %v", sel[0].BaselineUS)
	}
}

// TestSelectBaseline records the default plan's (best) mean as the
// baseline the winner is compared against.
func TestSelectBaseline(t *testing.T) {
	cells := PinnedCells("ARM-N1")
	def := DefaultPlan()
	fast := CandidatePlans()[3]
	samples := []Sample{
		{Cell: cells[0].Cell, Size: cells[0].Size, Plan: def, MeanUS: 12},
		{Cell: cells[0].Cell, Size: cells[0].Size, Plan: def, MeanUS: 10},
		{Cell: cells[0].Cell, Size: cells[0].Size, Plan: fast, MeanUS: 7},
	}
	sel := Select(samples)
	if len(sel) != 1 {
		t.Fatalf("got %d cells", len(sel))
	}
	if sel[0].BaselineUS != 10 || sel[0].TunedUS != 7 || sel[0].Plan.Name != fast.Name {
		t.Fatalf("got %+v, want baseline 10, tuned 7, plan %s", sel[0], fast.Name)
	}
}
