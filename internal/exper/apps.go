package exper

import (
	"fmt"
	"strings"

	"xhc/internal/apps"
	"xhc/internal/sim"
	"xhc/internal/stats"
	"xhc/internal/topo"
)

func init() {
	register("fig12", "PiSvM performance across components and platforms", runFig12)
	register("fig13", "miniAMR performance (expanding sphere, two configurations)", runFig13)
	register("fig14", "CNTK performance (AlexNet-like SGD)", runFig14)
}

// appComponents mirrors the paper's application comparisons: tuned, ucc,
// smhc (flat on the 1-socket machine) and xbrc next to XHC.
func appComponents(top *topo.Topology) []string {
	smhc := "smhc-tree"
	if top.NSockets == 1 {
		smhc = "smhc-flat"
	}
	return []string{"xhc-tree", "tuned", "ucc", smhc, "xbrc"}
}

// appSweep runs one app model across components and platforms, reporting
// totals and collective-time breakdowns, plus next-best speedup metrics.
// Every (platform, component) pair is a self-contained app simulation, so
// the pairs run concurrently under Options.Parallel.
func appSweep(o Options, r *Report, runOne func(base apps.Config, quick bool) (apps.Result, error)) error {
	type job struct {
		top  *topo.Topology
		name string
	}
	var jobs []job
	for _, top := range topo.Platforms() {
		for _, name := range appComponents(top) {
			jobs = append(jobs, job{top, name})
		}
	}
	cells := make([]apps.Result, len(jobs))
	err := runCells(o, len(jobs), func(i int) error {
		j := jobs[i]
		nranks := j.top.NCores
		if o.Quick {
			nranks = nranks / 2 // halve occupancy to keep the suite quick
		}
		res, err := runOne(apps.Config{Topo: j.top, NRanks: nranks, Component: j.name}, o.Quick)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", j.name, j.top.Name, err)
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return err
	}

	var b strings.Builder
	next := 0
	for _, top := range topo.Platforms() {
		nranks := top.NCores
		if o.Quick {
			nranks = nranks / 2
		}
		comps := appComponents(top)
		t := &stats.Table{Header: []string{"Component", "Total(ms)", "Coll(ms)"}}
		totals := map[string]float64{}
		for _, name := range comps {
			res := cells[next]
			next++
			totals[name] = float64(res.Total) / float64(sim.Millisecond)
			t.Add(name,
				fmt.Sprintf("%.2f", float64(res.Total)/float64(sim.Millisecond)),
				fmt.Sprintf("%.2f", float64(res.Coll)/float64(sim.Millisecond)))
		}
		fmt.Fprintf(&b, "%s (%d ranks):\n%s\n", top.Name, nranks, t.String())
		// Speedup of xhc-tree over the next-best other component.
		best := 0.0
		for name, tot := range totals {
			if name == "xhc-tree" {
				continue
			}
			if best == 0 || tot < best {
				best = tot
			}
		}
		if totals["xhc-tree"] > 0 {
			r.Metric(top.Name+"_speedup_over_next_best", best/totals["xhc-tree"])
		}
	}
	r.Text = b.String()
	return nil
}

func runFig12(o Options) (*Report, error) {
	r := &Report{ID: "fig12", Title: "PiSvM"}
	err := appSweep(o, r, func(base apps.Config, quick bool) (apps.Result, error) {
		cfg := apps.DefaultPiSvM(base)
		if quick {
			cfg.Iterations = 10
		}
		return apps.PiSvM(cfg)
	})
	return r, err
}

func runFig13(o Options) (*Report, error) {
	r := &Report{ID: "fig13", Title: "miniAMR (expanding sphere)"}
	var b strings.Builder
	for i, mk := range []func(apps.Config) apps.MiniAMRConfig{apps.DefaultMiniAMR, apps.ChallengingMiniAMR} {
		sub := &Report{}
		label := "(a) default, 4 refinement levels"
		if i == 1 {
			label = "(b) 1K refinement levels, refine every step"
		}
		err := appSweep(o, sub, func(base apps.Config, quick bool) (apps.Result, error) {
			cfg := mk(base)
			if quick {
				cfg.Steps = min(cfg.Steps, 30)
			}
			return apps.MiniAMR(cfg)
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s\n%s", label, sub.Text)
		for k, v := range sub.Metrics {
			suffix := "_a"
			if i == 1 {
				suffix = "_b"
			}
			r.Metric(k+suffix, v)
		}
	}
	r.Text = b.String()
	return r, nil
}

func runFig14(o Options) (*Report, error) {
	r := &Report{ID: "fig14", Title: "CNTK (AlexNet-like SGD)"}
	err := appSweep(o, r, func(base apps.Config, quick bool) (apps.Result, error) {
		cfg := apps.DefaultCNTK(base)
		if quick {
			cfg.Minibatches = 3
		}
		return apps.CNTK(cfg)
	})
	return r, err
}
