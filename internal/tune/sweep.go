package tune

import (
	"fmt"

	"xhc/internal/osu"
	"xhc/internal/topo"
)

// PinnedCell is one cell of the repro gate: the tuner's promises are made
// (and re-checked) on these exact measurements.
type PinnedCell struct {
	Cell
	Size int
}

// PinnedCells returns the platform's pinned cell set: the two headline
// collectives of the paper's evaluation across the three size classes.
// Sweep tunes them and xhctune -check replays them — both must agree on
// this list.
func PinnedCells(platform string) []PinnedCell {
	mk := func(coll string, size int) PinnedCell {
		return PinnedCell{
			Cell: Cell{Platform: platform, Collective: coll, SizeClass: SizeClassOf(size)},
			Size: size,
		}
	}
	return []PinnedCell{
		mk("bcast", 512),
		mk("bcast", 8<<10),
		mk("bcast", 128<<10),
		mk("allreduce", 512),
		mk("allreduce", 8<<10),
		mk("allreduce", 128<<10),
	}
}

// CandidatePlans is the offline sweep's search space: the default plan
// plus single-knob departures along each tunable axis. The default must
// come first — Select keys the baseline on its name.
func CandidatePlans() []Plan {
	d := DefaultPlan()
	mk := func(name string, mut func(*Plan)) Plan {
		p := d
		p.Name = name
		p.ChunkBytes = append([]int(nil), d.ChunkBytes...)
		mut(&p)
		return p
	}
	return []Plan{
		d,
		// CICO routing: raise the threshold so medium payloads take the
		// copy-in-copy-out path instead of paying XPMEM exposure, or drop
		// it so everything pays the single-copy path.
		mk("cico-8k", func(p *Plan) { p.CICOThreshold = 8 << 10; p.CICOBytes = 32 << 10 }),
		mk("cico-off", func(p *Plan) { p.CICOThreshold = 0 }),
		// Pipelining granule: finer chunks overlap level hops, coarser
		// chunks amortize flag traffic.
		mk("chunk-4k", func(p *Plan) { p.ChunkBytes = []int{4 << 10} }),
		mk("chunk-64k", func(p *Plan) { p.ChunkBytes = []int{64 << 10} }),
		// Hierarchy shape: drop the socket level (one hop less) or go flat.
		mk("numa-only", func(p *Plan) { p.Sensitivity = "numa" }),
		mk("socket-only", func(p *Plan) { p.Sensitivity = "socket" }),
		mk("flat", func(p *Plan) { p.Sensitivity = "flat" }),
	}
}

// SweepOpts configures an offline sweep.
type SweepOpts struct {
	Platform string
	// NRanks is the job size (0: every core of the platform).
	NRanks int
	// Quick trims the iteration counts for CI gates; the simulated clock
	// makes the measured latencies identical either way, so quick runs
	// reach the same verdicts.
	Quick bool
	// Plans/Cells override the candidate set and pinned cells (nil: the
	// package defaults).
	Plans []Plan
	Cells []PinnedCell
	// Progress, when set, receives one line per measured (cell, plan).
	Progress func(format string, args ...any)
}

func (o SweepOpts) iters() (warmup, measured int) {
	if o.Quick {
		return 1, 2
	}
	return 2, 5
}

// Measure runs one (cell, plan) microbenchmark and returns the OSU-style
// result for the cell's representative size. The simulation is
// deterministic, so repeated calls return identical latencies.
func Measure(c PinnedCell, p Plan, nranks, warmup, iters int) (osu.Result, error) {
	top := topo.ByName(c.Platform)
	if top == nil {
		return osu.Result{}, fmt.Errorf("tune: unknown platform %q", c.Platform)
	}
	if err := p.Validate(); err != nil {
		return osu.Result{}, err
	}
	b := osu.Bench{
		Topo: top, NRanks: nranks, Component: "xhc-" + p.Name, Custom: p.Builder(),
		Warmup: warmup, Iters: iters, Dirty: true,
	}
	var rs []osu.Result
	var err error
	switch c.Collective {
	case "bcast":
		rs, err = b.Bcast([]int{c.Size})
	case "allreduce":
		rs, err = b.Allreduce([]int{c.Size})
	case "reduce":
		rs, err = b.Reduce([]int{c.Size})
	case "allgather":
		rs, err = b.Allgather([]int{c.Size})
	case "scatter":
		rs, err = b.Scatter([]int{c.Size})
	case "barrier":
		rs, err = b.Barrier()
	default:
		return osu.Result{}, fmt.Errorf("tune: unknown collective %q", c.Collective)
	}
	if err != nil {
		return osu.Result{}, err
	}
	if len(rs) != 1 {
		return osu.Result{}, fmt.Errorf("tune: %s size %d: %d results (want 1)", c.Collective, c.Size, len(rs))
	}
	return rs[0], nil
}

// Sweep measures every candidate plan on every pinned cell, selects the
// winner per cell, and returns the plan file.
func Sweep(o SweepOpts) (File, error) {
	plans := o.Plans
	if plans == nil {
		plans = CandidatePlans()
	}
	cells := o.Cells
	if cells == nil {
		cells = PinnedCells(o.Platform)
	}
	warmup, iters := o.iters()

	var samples []Sample
	for _, c := range cells {
		for _, p := range plans {
			r, err := Measure(c, p, o.NRanks, warmup, iters)
			if err != nil {
				return File{}, fmt.Errorf("tune: sweep %s plan %s: %w", c.Key(), p.Name, err)
			}
			samples = append(samples, Sample{
				Cell: c.Cell, Size: c.Size, Plan: p,
				MeanUS: r.AvgLat, MinUS: r.MinLat, MaxUS: r.MaxLat,
			})
			if o.Progress != nil {
				o.Progress("tune: %-32s %-12s %10.2f us", c.Key(), p.Name, r.AvgLat)
			}
		}
	}

	f := File{Version: FileVersion, Platform: o.Platform, Cells: Select(samples)}
	if err := f.Validate(); err != nil {
		return File{}, err
	}
	return f, nil
}
