package tune

import "testing"

// badPlan is a deliberately pessimal candidate: a 256-byte pipelining
// granule multiplies per-chunk flag traffic on every payload above the
// CICO threshold. The tuner must never let it win a cell it loses.
func badPlan() Plan {
	p := DefaultPlan()
	p.Name = "bad-chunk-256"
	p.ChunkBytes = []int{256}
	return p
}

// TestTunerNeverRegressesPinnedCell is the end-to-end loop: seed the
// candidate set with the deliberately bad plan, sweep-and-select, and
// prove (a) the persisted winner beats or ties the default on every
// pinned cell in the sweep's own measurements, and (b) a fresh replay
// through the repro gate (the same code path as xhctune -check) confirms
// no cell regresses past the 5%/1us thresholds.
func TestTunerNeverRegressesPinnedCell(t *testing.T) {
	const np = 40 // a node slice: keeps the e2e loop seconds-fast
	plans := append(CandidatePlans(), badPlan())
	f, err := Sweep(SweepOpts{Platform: "ARM-N1", NRanks: np, Quick: true, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != len(PinnedCells("ARM-N1")) {
		t.Fatalf("sweep selected %d cells, want %d", len(f.Cells), len(PinnedCells("ARM-N1")))
	}
	for _, cp := range f.Cells {
		if cp.BaselineUS <= 0 {
			t.Errorf("%s: sweep lost the default baseline", cp.Key())
		}
		if cp.TunedUS > cp.BaselineUS {
			t.Errorf("%s: winner %s (%.2fus) regresses the default (%.2fus)",
				cp.Key(), cp.Plan.Name, cp.TunedUS, cp.BaselineUS)
		}
	}

	results, regressions, err := Check(f, CheckOpts{NRanks: np, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		for _, r := range results {
			if r.Regressed {
				t.Errorf("repro gate: %s regressed (default %.2fus, tuned %.2fus)", r.Key, r.DefaultUS, r.TunedUS)
			}
		}
	}
	// The simulated clock makes the replay exact: the gate's fresh tuned
	// measurement must reproduce what the sweep recorded.
	for _, r := range results {
		if r.TunedUS != r.RecordedUS {
			t.Errorf("repro gate: %s replayed %.4fus, plan file recorded %.4fus", r.Key, r.TunedUS, r.RecordedUS)
		}
	}
}
