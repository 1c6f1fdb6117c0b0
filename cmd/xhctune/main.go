// Command xhctune is the offline autotuner (DESIGN.md §17): it picks the
// knobs a communicator is constructed with, per pinned cell.
//
// Modes:
//
//	xhctune -sweep -platform ARM-N1 -plan tuned/ARM-N1.json
//	    Offline sweep-and-select: measure every candidate plan on every
//	    pinned cell and persist the winner per cell to the plan file.
//
//	xhctune -check -plan tuned/ARM-N1.json
//	    No-regression repro gate: replay every pinned cell fresh under the
//	    default plan and the file's winning plan; fail if any tuned cell
//	    is more than 5% and 1us slower than the default.
//
// Exit status: 0 success, 1 regression, 2 usage or plan-file error — the
// same convention as xhcstat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xhc/internal/tune"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xhctune", flag.ContinueOnError)
	sweep := fs.Bool("sweep", false, "run the offline sweep-and-select and persist the plan file")
	check := fs.Bool("check", false, "replay the plan file's pinned cells as a no-regression gate")
	quick := fs.Bool("quick", false, "trim iteration counts (simulated latencies and verdicts are unchanged)")
	platform := fs.String("platform", "ARM-N1", "simulated platform to tune (sweep mode)")
	planPath := fs.String("plan", "", "plan file path (default tuned/<platform>.json)")
	np := fs.Int("np", 0, "rank count (0 = all cores; must match between sweep and check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sweep == *check {
		fmt.Fprintln(os.Stderr, "xhctune: exactly one of -sweep, -check is required")
		fs.Usage()
		return 2
	}
	if *planPath == "" {
		*planPath = "tuned/" + *platform + ".json"
	}
	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	switch {
	case *sweep:
		f, err := tune.Sweep(tune.SweepOpts{
			Platform: *platform, NRanks: *np, Quick: *quick, Progress: progress,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		data, err := f.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		if err := os.WriteFile(*planPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		improved := 0
		for _, c := range f.Cells {
			delta := 0.0
			if c.BaselineUS > 0 {
				delta = (c.BaselineUS - c.TunedUS) / c.BaselineUS * 100
			}
			if c.Plan.Name != "default" && delta >= 5 {
				improved++
			}
			fmt.Printf("%-32s plan=%-12s default=%8.2fus tuned=%8.2fus  %+.1f%%\n",
				c.Key(), c.Plan.Name, c.BaselineUS, c.TunedUS, -delta)
		}
		fmt.Printf("xhctune: wrote %s (%d cells, %d improved >= 5%%)\n", *planPath, len(f.Cells), improved)
		return 0

	default: // check
		f, err := tune.Load(*planPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		results, regressions, err := tune.Check(f, tune.CheckOpts{NRanks: *np, Quick: *quick, Progress: progress})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "xhctune:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "xhctune: %d cells replayed, %d regressed\n", len(results), regressions)
		if regressions > 0 {
			return 1
		}
		return 0
	}
}
