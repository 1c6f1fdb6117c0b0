// Command xhcbench runs OSU-style collective microbenchmarks on the
// simulated platforms.
//
// Examples:
//
//	xhcbench -platform Epyc-2P -coll bcast -comp xhc-tree
//	xhcbench -platform ARM-N1 -coll allreduce -comp tuned,ucc,xhc-tree -sizes 4,1024,1048576
//	xhcbench -platform Epyc-2P -coll bcast -comp xhc-tree -policy map-numa -root 10
//	xhcbench -platform ARM-N1 -coll allreduce -comp xhc-tree -json cells.json -cpuprofile cpu.prof
//
// A "<N>x<platform>" platform name selects the multi-node cluster
// simulator: N nodes of the platform joined by the simulated fabric, with
// the top hierarchy level running between node leaders. The -workers flag
// sets how many goroutines run the per-node engine shards; the report is
// byte-identical at every setting.
//
//	xhcbench -platform 4xEpyc-1P -coll allreduce -workers 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/gxhc"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/osu"
	"xhc/internal/sim"
	"xhc/internal/stats"
	"xhc/internal/topo"
	"xhc/internal/tune"
)

// cellRecord is one (component, size) measurement in the -json output.
// It carries latencies only, never host time: on the simulated backends
// every field is virtual time, so a -json file is byte-reproducible and
// BENCH_cluster.json is exactly such a file.
type cellRecord struct {
	Platform   string  `json:"platform"`
	Collective string  `json:"collective"`
	Component  string  `json:"component"`
	Size       int     `json:"size"`
	AvgLatUS   float64 `json:"avg_lat_us"`
	MinLatUS   float64 `json:"min_lat_us"`
	MaxLatUS   float64 `json:"max_lat_us"`
}

func main() {
	backend := flag.String("backend", "sim", "sim (simulated platforms) | gxhc (real goroutine-backed wall clock)")
	platform := flag.String("platform", "Epyc-2P", "Epyc-1P | Epyc-2P | ARM-N1 (sim backend)")
	collective := flag.String("coll", "bcast", "bcast | allreduce | barrier | reduce | allgather | scatter (cluster platforms: comma-separated list of bcast | allreduce | reduce | barrier; gxhc backend also: ibcast-overlap | ibcast-fused)")
	comps := flag.String("comp", "xhc-tree", "comma-separated component list (see -listcomp)")
	sizesArg := flag.String("sizes", "", "comma-separated byte sizes (default: 4B..4MB sweep)")
	nranks := flag.Int("np", 0, "rank count (0 = all cores)")
	policy := flag.String("policy", "map-core", "map-core | map-numa")
	root := flag.Int("root", 0, "broadcast root")
	warmup := flag.Int("warmup", 4, "warmup iterations")
	iterations := flag.Int("iters", 10, "measured iterations")
	stock := flag.Bool("stock", false, "stock OSU behaviour (no buffer dirtying)")
	listComp := flag.Bool("listcomp", false, "list components and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	jsonOut := flag.String("json", "", "also write per-cell latencies (avg/min/max us) as JSON to this file")
	procsArg := flag.String("procs", "", "gxhc backend: comma-separated GOMAXPROCS settings to sweep (default: current)")
	groupSize := flag.Int("group", 8, "gxhc backend: hierarchy leaf group size")
	chunkBytes := flag.Int("chunk", 64<<10, "gxhc backend: broadcast pipelining chunk bytes")
	workers := flag.Int("workers", 0, "cluster platforms: engine-shard goroutines (0 = GOMAXPROCS, 1 = sequential reference)")
	allocGate := flag.Bool("allocgate", false, "gxhc backend: fail unless the steady-state op path is allocation-free at every measured size")
	traceOut := flag.String("trace", "", "write per-rank phase spans as Chrome-trace JSON to this file")
	metrics := flag.Bool("metrics", false, "print the unified observability snapshot on exit")
	telemetry := flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /flight dumps, pprof) on this address during the run")
	tunedPath := flag.String("tuned", "", "xhctune plan file backing the xhc-tuned component (sim backend)")
	flag.Parse()

	var tuned *tune.File
	if *tunedPath != "" {
		f, err := tune.Load(*tunedPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tuned = &f
	}

	var reg *obs.Registry
	if *traceOut != "" || *metrics || *telemetry != "" {
		reg = obs.NewRegistry(*traceOut != "")
		env.ObserveWorlds(reg)
	}
	if *telemetry != "" {
		addr, err := obs.StartTelemetry(reg, *telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Report on stderr: stdout is the benchmark report and must stay
		// byte-identical with telemetry off.
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
	}

	if *listComp {
		fmt.Println(strings.Join(coll.Names(), "\n"))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sizes := osu.DefaultSizes()
	if *sizesArg != "" {
		sizes = nil
		for _, s := range strings.Split(*sizesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad size %q\n", s)
				os.Exit(2)
			}
			sizes = append(sizes, n)
		}
	}

	if *collective == "barrier" {
		sizes = []int{0} // no payload; one row
	}

	var records []cellRecord
	if *backend == "gxhc" {
		records = runGxhc(gxhcOpts{
			coll: *collective, sizes: sizes, nranks: *nranks,
			procs: *procsArg, group: *groupSize, chunk: *chunkBytes,
			warmup: *warmup, iters: *iterations, dirty: !*stock, root: *root,
			allocGate: *allocGate,
		}, reg)
	} else if cl := topo.ClusterByName(*platform); cl != nil {
		records = runCluster(cl, clusterOpts{
			coll: *collective, sizes: sizes, nranks: *nranks, root: *root,
			warmup: *warmup, iters: *iterations, dirty: !*stock,
			workers: *workers,
		})
	} else {
		records = runSim(simOpts{
			platform: *platform, coll: *collective, comps: *comps,
			sizes: sizes, nranks: *nranks, policy: *policy, root: *root,
			warmup: *warmup, iters: *iterations, dirty: !*stock,
			tuned: tuned,
		})
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if reg != nil {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = reg.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
		if *metrics {
			fmt.Print(reg.Snapshot().String())
		}
	}
}

type simOpts struct {
	platform, coll, comps, policy string
	sizes                         []int
	nranks, root, warmup, iters   int
	dirty                         bool
	// tuned backs the "xhc-tuned" component: each measured size resolves
	// its plan through the file's size classes. Requesting xhc-tuned
	// without a plan file (or with a cell the file does not cover) is an
	// error — a tuned column silently falling back to defaults would
	// fabricate wins.
	tuned *tune.File
}

// runSim is the original simulated-platform sweep: one column per
// component, one row per measured size.
func runSim(o simOpts) []cellRecord {
	top := topo.ByName(o.platform)
	if top == nil {
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", o.platform)
		os.Exit(2)
	}
	names := strings.Split(o.comps, ",")
	all := map[string]map[int]float64{}
	var records []cellRecord
	// rowSizes tracks the sizes actually measured, in sweep order: allreduce
	// normalizes sizes to whole elements, so the report must key its rows on
	// the returned sizes, not the requested ones.
	var rowSizes []int
	seenSize := map[int]bool{}
	for _, name := range names {
		b := osu.Bench{
			Topo: top, NRanks: o.nranks, Component: strings.TrimSpace(name),
			Policy: topo.MapPolicy(o.policy), Root: o.root,
			Warmup: o.warmup, Iters: o.iters, Dirty: o.dirty,
		}
		all[name] = map[int]float64{}
		for _, size := range o.sizes {
			if name == "xhc-tuned" {
				if o.tuned == nil {
					fmt.Fprintln(os.Stderr, "component xhc-tuned needs -tuned <planfile>")
					os.Exit(2)
				}
				cp, ok := o.tuned.Lookup(o.coll, size)
				if !ok {
					fmt.Fprintf(os.Stderr, "plan file %s has no cell covering %s size %d\n",
						o.tuned.Platform, o.coll, size)
					os.Exit(2)
				}
				b.Custom = cp.Plan.Builder()
			}
			var rs []osu.Result
			var err error
			switch o.coll {
			case "bcast":
				rs, err = b.Bcast([]int{size})
			case "allreduce":
				rs, err = b.Allreduce([]int{size})
			case "barrier":
				rs, err = b.Barrier()
			case "reduce":
				rs, err = b.Reduce([]int{size})
			case "allgather":
				rs, err = b.Allgather([]int{size})
			case "scatter":
				rs, err = b.Scatter([]int{size})
			default:
				fmt.Fprintf(os.Stderr, "unknown collective %q\n", o.coll)
				os.Exit(2)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rs) == 0 {
				continue
			}
			r := rs[0]
			all[name][r.Size] = r.AvgLat
			if !seenSize[r.Size] {
				seenSize[r.Size] = true
				rowSizes = append(rowSizes, r.Size)
			}
			records = append(records, cellRecord{
				Platform: top.Name, Collective: o.coll, Component: name,
				Size: r.Size, AvgLatUS: r.AvgLat, MinLatUS: r.MinLat, MaxLatUS: r.MaxLat,
			})
		}
	}

	np := o.nranks
	if np == 0 {
		np = top.NCores
	}
	fmt.Printf("# %s on %s, %d ranks, %s, root %d (latency us, mean of %d iters)\n",
		o.coll, top.Name, np, o.policy, o.root, o.iters)
	t := &stats.Table{Header: append([]string{"size"}, names...)}
	for _, n := range rowSizes {
		row := []string{stats.SizeLabel(n)}
		for _, name := range names {
			row = append(row, fmt.Sprintf("%.2f", all[name][n]))
		}
		t.Add(row...)
	}
	fmt.Print(t.String())
	return records
}

type clusterOpts struct {
	coll                        string
	sizes                       []int
	nranks, root, warmup, iters int
	workers                     int
	dirty                       bool
}

// runCluster sweeps the multi-node simulator: one fresh ClusterWorld per
// measured size, an OSU-style warmup+measured loop on every rank, and
// latencies in simulated microseconds averaged over all ranks and iters.
// Unlike the other backends -coll accepts a comma-separated list here, so
// one invocation emits the whole BENCH_cluster.json sweep (`make
// bench-cluster` writes it). Latencies are virtual time, so every cell is
// bit-reproducible: TestClusterBaselineExact requires a fresh in-process
// sweep to equal the committed file float for float, and the per-node
// engine shards running on -workers goroutines cannot change a digit
// (scripts/check.sh cmps the -workers 1 and -workers 4 reports).
func runCluster(cl *topo.Cluster, o clusterOpts) []cellRecord {
	perNode := o.nranks
	if perNode == 0 {
		perNode = cl.Node.NCores
	} else if perNode%cl.Nodes != 0 {
		fmt.Fprintf(os.Stderr, "np %d does not divide evenly over %d nodes\n", o.nranks, cl.Nodes)
		os.Exit(2)
	} else {
		perNode /= cl.Nodes
	}
	if perNode > cl.Node.NCores {
		fmt.Fprintf(os.Stderr, "np %d needs %d ranks per node but %s has %d cores\n",
			o.nranks, perNode, cl.Node.Name, cl.Node.NCores)
		os.Exit(2)
	}

	colls := strings.Split(o.coll, ",")
	for i, c := range colls {
		colls[i] = strings.TrimSpace(c)
		switch colls[i] {
		case "bcast", "allreduce", "reduce", "barrier":
		default:
			fmt.Fprintf(os.Stderr, "cluster backend: unknown collective %q (bcast | allreduce | reduce | barrier)\n", colls[i])
			os.Exit(2)
		}
	}

	var records []cellRecord
	for ci, coll := range colls {
		sizes := o.sizes
		switch coll {
		case "barrier":
			sizes = []int{0} // no payload; one row
		case "allreduce", "reduce":
			// Reductions operate on whole float64 elements; normalize like
			// osu does so the report rows match the measured sizes.
			norm := make([]int, 0, len(sizes))
			seen := map[int]bool{}
			for _, n := range sizes {
				if n >= 8 {
					n -= n % 8
				}
				if n < 0 || seen[n] {
					continue
				}
				seen[n] = true
				norm = append(norm, n)
			}
			sizes = norm
		}

		var rowSizes []int
		col := map[int]float64{}
		for _, size := range sizes {
			m, err := cl.Node.Map(topo.MapCore, perNode)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			cw := env.NewClusterWorldDefault(cl, m)
			cw.Workers = o.workers
			cc, err := core.NewCluster(cw, core.DefaultConfig())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			dt := mpi.Float64
			if size < 8 {
				dt = mpi.Byte
			}
			// Shards run in parallel: every rank records into its own slot.
			lats := make([][]float64, cw.N)
			coll := coll
			runErr := cw.Run(func(p *env.Proc, node int) {
				g := cw.GlobalRank(node, p.Rank)
				alloc := size
				if alloc == 0 {
					alloc = 8
				}
				sbuf := p.NewBuffer(fmt.Sprintf("bench.s%d", g), alloc)
				rbuf := p.NewBuffer(fmt.Sprintf("bench.r%d", g), alloc)
				for it := 0; it < o.warmup+o.iters; it++ {
					if o.dirty && size > 0 && (coll != "bcast" || g == o.root) {
						p.Dirty(sbuf)
					}
					cw.HarnessBarrier(p, node)
					t0 := p.Now()
					switch coll {
					case "bcast":
						cc.Bcast(p, node, sbuf, 0, size, o.root)
					case "allreduce":
						cc.Allreduce(p, node, sbuf, rbuf, size, dt, mpi.Sum)
					case "reduce":
						cc.Reduce(p, node, sbuf, rbuf, size, dt, mpi.Sum, o.root)
					case "barrier":
						cc.Barrier(p, node)
					}
					d := p.Now() - t0
					if it >= o.warmup {
						lats[g] = append(lats[g], sim.Micros(d))
					}
					cw.HarnessBarrier(p, node)
				}
			})
			if runErr != nil {
				fmt.Fprintln(os.Stderr, runErr)
				os.Exit(1)
			}
			var all []float64
			for _, l := range lats {
				all = append(all, l...)
			}
			if len(all) == 0 {
				continue
			}
			col[size] = stats.Mean(all)
			rowSizes = append(rowSizes, size)
			records = append(records, cellRecord{
				Platform: cl.Name, Collective: coll, Component: "xhc-cluster",
				Size: size, AvgLatUS: stats.Mean(all), MinLatUS: stats.Min(all), MaxLatUS: stats.Max(all),
			})
		}

		if ci > 0 {
			fmt.Println()
		}
		fmt.Printf("# %s on %s (%d nodes x %d ranks = %d), root %d (latency us, mean of %d iters)\n",
			coll, cl.Name, cl.Nodes, perNode, cl.Nodes*perNode, o.root, o.iters)
		t := &stats.Table{Header: []string{"size", "xhc-cluster"}}
		for _, n := range rowSizes {
			t.Add(stats.SizeLabel(n), fmt.Sprintf("%.2f", col[n]))
		}
		fmt.Print(t.String())
	}
	return records
}

type gxhcOpts struct {
	coll                 string
	sizes                []int
	procs                string
	nranks, group, chunk int
	root, warmup, iters  int
	allocGate, dirty     bool
}

// runGxhc measures the real goroutine-backed gxhc communicator on the wall
// clock, sweeping GOMAXPROCS settings: one column per setting, one row per
// measured size. Like the cluster backend, -coll accepts a comma-separated
// list here, so one invocation can emit e.g. both non-blocking overlap
// cells (ibcast-overlap, ibcast-fused) into one cells file. The -json
// cells key the GOMAXPROCS setting into the platform field ("gxhc-P<n>"),
// so cells measured under different settings never share a key. These
// latencies are wall clock and vary run to run; no committed file gates
// them (the perfbench/ module is the gxhc benchmark).
func runGxhc(o gxhcOpts, reg *obs.Registry) []cellRecord {
	np := o.nranks
	if np == 0 {
		np = runtime.NumCPU()
	}
	var procs []int
	if o.procs == "" {
		procs = []int{runtime.GOMAXPROCS(0)}
	} else {
		for _, s := range strings.Split(o.procs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p <= 0 {
				fmt.Fprintf(os.Stderr, "bad -procs entry %q\n", s)
				os.Exit(2)
			}
			procs = append(procs, p)
		}
	}
	const component = "gxhc"

	var records []cellRecord
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for ci, coll := range strings.Split(o.coll, ",") {
		coll = strings.TrimSpace(coll)
		spec := gxhc.BenchSpec{
			Ranks: np,
			Cfg:   gxhc.Config{GroupSize: o.group, ChunkBytes: o.chunk},
			Coll:  coll, Warmup: o.warmup, Iters: o.iters, Dirty: o.dirty, Root: o.root,
		}
		var worlds []*obs.World
		if reg != nil {
			spec.Observe = func(c *gxhc.Comm) {
				wo := reg.NewWorld("gxhc", np, obs.WallTicksPerUS, obs.WallClock())
				wo.Rec.Backend = component
				c.AttachRecorder(wo.Rec)
				worlds = append(worlds, wo)
			}
		}

		colLabels := make([]string, len(procs))
		cols := make([]map[int]float64, len(procs))
		var rowSizes []int
		seenSize := map[int]bool{}
		for pi, p := range procs {
			runtime.GOMAXPROCS(p)
			colLabels[pi] = fmt.Sprintf("P%d", p)
			cols[pi] = map[int]float64{}
			for _, size := range o.sizes {
				rs, err := spec.Run([]int{size})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if len(rs) == 0 {
					continue
				}
				r := rs[0]
				cols[pi][r.Size] = r.AvgLat
				if !seenSize[r.Size] {
					seenSize[r.Size] = true
					rowSizes = append(rowSizes, r.Size)
				}
				records = append(records, cellRecord{
					Platform: fmt.Sprintf("gxhc-P%d", p), Collective: coll, Component: component,
					Size: r.Size, AvgLatUS: r.AvgLat, MinLatUS: r.MinLat, MaxLatUS: r.MaxLat,
				})
			}
			if o.allocGate {
				for _, size := range rowSizes {
					got, err := spec.SteadyStateAllocs(size)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					if got != 0 {
						fmt.Fprintf(os.Stderr, "allocgate: %s P%d size %d: %.4f allocs/op on the steady-state path (want 0)\n",
							coll, p, size, got)
						os.Exit(1)
					}
					fmt.Fprintf(os.Stderr, "allocgate: %s P%d size %d: 0 allocs/op\n", coll, p, size)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		for _, wo := range worlds {
			wo.Finish(mem.Stats{}, sim.EngineStats{})
		}

		if ci > 0 {
			fmt.Println()
		}
		fmt.Printf("# %s on gxhc (wall clock), %d ranks, group %d, root %d (latency us, mean of %d iters)\n",
			coll, np, o.group, o.root, o.iters)
		t := &stats.Table{Header: append([]string{"size"}, colLabels...)}
		for _, n := range rowSizes {
			row := []string{stats.SizeLabel(n)}
			for pi := range procs {
				row = append(row, fmt.Sprintf("%.2f", cols[pi][n]))
			}
			t.Add(row...)
		}
		fmt.Print(t.String())
	}
	return records
}
