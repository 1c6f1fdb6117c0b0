package tune

import (
	"fmt"
)

// Regression thresholds of the repro gate: a tuned cell
// regresses when it is both more than RegressionFloorUS slower in absolute
// terms (sub-microsecond noise on tiny cells must not fail the gate) and
// more than RegressionThreshold slower relative to the default plan.
const (
	RegressionThreshold = 0.05
	RegressionFloorUS   = 1.0
)

// Regressed applies the gate rule to one cell.
func Regressed(defaultUS, tunedUS float64) bool {
	d := tunedUS - defaultUS
	return d > RegressionFloorUS && (defaultUS <= 0 || d/defaultUS > RegressionThreshold)
}

// CheckResult is one replayed pinned cell of the repro gate.
type CheckResult struct {
	Key       string  `json:"key"`
	Size      int     `json:"size"`
	Plan      string  `json:"plan"`
	DefaultUS float64 `json:"default_us"`
	TunedUS   float64 `json:"tuned_us"`
	// RecordedUS is the tuned latency the plan file promised when the
	// sweep selected this plan; a drift between it and TunedUS means the
	// simulator's cost model moved since the file was written.
	RecordedUS float64 `json:"recorded_us"`
	Regressed  bool    `json:"regressed"`
}

// CheckOpts configures a repro-gate run.
type CheckOpts struct {
	// NRanks must match the sweep that produced the file (0: all cores).
	NRanks int
	// Quick trims iterations; simulated latencies are identical either
	// way, so the verdicts match the full run's.
	Quick bool
	// Progress, when set, receives one line per replayed cell.
	Progress func(format string, args ...any)
}

// Check replays every pinned cell of the plan file: each cell is measured
// fresh under the default plan and under the file's winning plan, and the
// tuned run must beat or tie the default within the regression
// thresholds. The returned error is non-nil only for infrastructure
// failures; regressions are reported per cell so the caller can render
// all of them before failing.
func Check(f File, o CheckOpts) ([]CheckResult, int, error) {
	if err := f.Validate(); err != nil {
		return nil, 0, err
	}
	warmup, iters := 2, 5
	if o.Quick {
		warmup, iters = 1, 2
	}
	def := DefaultPlan()
	var out []CheckResult
	regressions := 0
	for _, cp := range f.Cells {
		pc := PinnedCell{Cell: cp.Cell, Size: cp.Size}
		rd, err := Measure(pc, def, o.NRanks, warmup, iters)
		if err != nil {
			return nil, 0, fmt.Errorf("tune: check %s: default plan: %w", cp.Key(), err)
		}
		rt, err := Measure(pc, cp.Plan, o.NRanks, warmup, iters)
		if err != nil {
			return nil, 0, fmt.Errorf("tune: check %s: plan %s: %w", cp.Key(), cp.Plan.Name, err)
		}
		r := CheckResult{
			Key: cp.Key(), Size: cp.Size, Plan: cp.Plan.Name,
			DefaultUS: rd.AvgLat, TunedUS: rt.AvgLat, RecordedUS: cp.TunedUS,
			Regressed: Regressed(rd.AvgLat, rt.AvgLat),
		}
		if r.Regressed {
			regressions++
		}
		out = append(out, r)
		if o.Progress != nil {
			verdict := "ok"
			if r.Regressed {
				verdict = "REGRESSED"
			}
			o.Progress("tune: check %-32s plan=%-12s default=%.2fus tuned=%.2fus %s",
				r.Key, r.Plan, r.DefaultUS, r.TunedUS, verdict)
		}
	}
	return out, regressions, nil
}
