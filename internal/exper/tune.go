package exper

import (
	"fmt"
	"strings"

	"xhc/internal/stats"
	"xhc/internal/tune"
)

func init() {
	register("tune", "Autotuner: sweep-and-select (ARM-N1)", runTune)
}

// runTune demonstrates the offline autotuner of DESIGN.md §17 on a node
// slice of ARM-N1: a sweep-and-select over the candidate plans (or, with
// Options.PlanFile, the persisted winners from xhctune -sweep). Every
// (cell, plan) measurement is an independent simulation, so the sweep fans
// out across Options.Parallel workers and the rendered report stays
// byte-identical at any worker count.
func runTune(o Options) (*Report, error) {
	const platform = "ARM-N1"
	np := 40
	if o.Quick {
		np = 16
	}
	r := &Report{ID: "tune", Title: "Autotuner: sweep-and-select (ARM-N1, " + fmt.Sprint(np) + " ranks)"}
	var b strings.Builder

	var cps []tune.CellPlan
	if o.PlanFile != "" {
		f, err := tune.Load(o.PlanFile)
		if err != nil {
			return nil, err
		}
		cps = f.Cells
		fmt.Fprintf(&b, "Persisted plan file %s (platform %s):\n", o.PlanFile, f.Platform)
	} else {
		cells := tune.PinnedCells(platform)
		plans := tune.CandidatePlans()
		warm, it := iters(o)
		samples := make([]tune.Sample, len(cells)*len(plans))
		err := runCells(o, len(samples), func(i int) error {
			c, p := cells[i/len(plans)], plans[i%len(plans)]
			res, err := tune.Measure(c, p, np, warm, it)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", c.Key(), p.Name, err)
			}
			samples[i] = tune.Sample{Cell: c.Cell, Size: c.Size, Plan: p,
				MeanUS: res.AvgLat, MinUS: res.MinLat, MaxUS: res.MaxLat}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cps = tune.Select(samples)
		fmt.Fprintf(&b, "Sweep-and-select over %d plans x %d pinned cells:\n", len(plans), len(cells))
	}

	t := &stats.Table{Header: []string{"cell", "plan", "default us", "tuned us", "delta"}}
	improved := 0
	for _, cp := range cps {
		delta := 0.0
		if cp.BaselineUS > 0 {
			delta = (cp.BaselineUS - cp.TunedUS) / cp.BaselineUS * 100
			key := strings.ReplaceAll(cp.Key(), "/", "_")
			r.Metric(key+"_default_over_tuned", cp.BaselineUS/cp.TunedUS)
		}
		if cp.Plan.Name != "default" && delta >= 5 {
			improved++
		}
		t.Add(cp.Key(), cp.Plan.Name,
			fmt.Sprintf("%.2f", cp.BaselineUS), fmt.Sprintf("%.2f", cp.TunedUS),
			fmt.Sprintf("%+.1f%%", -delta))
	}
	b.WriteString(t.String())
	r.Metric("cells_improved_5pct", float64(improved))

	r.Text = b.String()
	return r, nil
}
