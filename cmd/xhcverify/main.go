// Command xhcverify explores many distinct schedules of the XHC protocols
// under fault injection, checking protocol invariants (single-writer
// discipline, data correctness, termination, bounded control memory) and
// cross-checking the simulated communicator against a registry baseline and
// the real-concurrency gxhc backend on every run.
//
// With -cluster the sweep (and -replay) runs the multi-node cases instead:
// randomized cluster shapes on the sharded engine, every run executed at
// workers=1 and workers=GOMAXPROCS with fingerprints compared.
//
// Examples:
//
//	xhcverify -quick                      # tier-1 gate: sweep + mutation self-test
//	xhcverify -configs 50 -schedules 32   # a longer hunt
//	xhcverify -cluster -quick             # multi-node sweep + determinism gate
//	xhcverify -replay 0x1d35be3e7a2e4c5a:0x00f3a9c2b1d40e77
//	xhcverify -selftest                   # mutation self-test only
//	xhcverify -configs 50 -telemetry :8080 -flightdir /tmp/dumps
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xhc/internal/obs"
	"xhc/internal/verify"
)

func main() {
	quick := flag.Bool("quick", false, "default sweep (20 configs x 12 schedules) plus the mutation self-test; fails if fewer than 200 distinct schedules are explored")
	configs := flag.Int("configs", 0, "number of randomized configurations (0 = default 20)")
	schedules := flag.Int("schedules", 0, "schedules per configuration (0 = default 12)")
	seed := flag.Uint64("seed", 0, "sweep seed (varies the whole sweep)")
	replay := flag.String("replay", "", "replay one failing run: cfgseed:schedseed (hex, as printed on failure)")
	cluster := flag.Bool("cluster", false, "sweep/replay the multi-node cluster cases (sharded engine + fabric) instead of the single-node ones")
	selftest := flag.Bool("selftest", false, "run only the mutation self-test")
	verbose := flag.Bool("v", false, "per-configuration progress")
	metrics := flag.Bool("metrics", false, "print the unified observability snapshot (latency quantiles, fault counters) on exit")
	telemetry := flag.String("telemetry", "", "serve live telemetry (Prometheus /metrics, /flight dumps, pprof) on this address during the run")
	flightDir := flag.String("flightdir", "", "write every flight-recorder dump as JSON into this directory")
	flag.Parse()

	// Every run is observed: latencies feed the registry's histograms,
	// injected faults its counters, and failures/stragglers dump the flight
	// recorder with the run's replay token attached.
	reg := obs.NewRegistry(false)
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		n := 0
		reg.SetDumpSink(func(d *obs.FlightDump) {
			n++
			path := filepath.Join(*flightDir, fmt.Sprintf("flight-%03d-%s.json", n, d.Kind))
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			werr := d.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				return
			}
			fmt.Fprintf(os.Stderr, "flight dump: %s (%s)\n", path, d.Reason)
		})
	}
	if *telemetry != "" {
		addr, err := obs.StartTelemetry(reg, *telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
	}

	var code int
	switch {
	case *replay != "" && *cluster:
		code = doClusterReplay(*replay)
	case *replay != "":
		code = doReplay(*replay, reg)
	case *selftest:
		code = doSelfTest()
	case *cluster:
		code = doClusterSweep(*configs, *schedules, *seed, *quick, *verbose)
	default:
		code = doSweep(*configs, *schedules, *seed, *quick, *verbose, reg)
		if *quick && code == 0 {
			code = doSelfTest()
		}
	}
	if *metrics {
		fmt.Print(reg.Snapshot().String())
	}
	os.Exit(code)
}

func doSweep(configs, schedules int, seed uint64, quick, verbose bool, reg *obs.Registry) int {
	o := verify.Options{Configs: configs, Schedules: schedules, Seed: seed, Obs: reg}
	if verbose {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	start := time.Now()
	sum := verify.Explore(o)
	// The wall time goes to stderr, so stdout repeats byte for byte.
	fmt.Printf("explored %d runs over %d configurations: %d distinct schedules, %d with concurrent communicators\n",
		sum.Runs, sum.Configs, sum.DistinctSchedules, sum.ConcRuns)
	fmt.Fprintf(os.Stderr, "explored in %v\n", time.Since(start).Round(time.Millisecond))
	for _, f := range sum.Failures {
		fmt.Printf("FAIL %s\n  schedule %s\n  %s\n  replay: xhcverify -replay %#016x:%#016x\n",
			f.Case, f.Sched, f.Err, f.CfgSeed, f.SchedSeed)
	}
	if len(sum.Failures) > 0 {
		fmt.Printf("%d failing run(s)\n", len(sum.Failures))
		return 1
	}
	if quick && sum.DistinctSchedules < 200 {
		fmt.Printf("quick gate: only %d distinct schedules (< 200)\n", sum.DistinctSchedules)
		return 1
	}
	if quick && sum.ConcRuns < 12 {
		// The concurrency draw adds overlapping-communicator phases (>= 2
		// comms, >= 2 requests in flight per member) to a third of the
		// seeds; a sweep that explored fewer than one configuration's worth
		// never exercised concurrent collectives.
		fmt.Printf("quick gate: only %d concurrent-communicator runs (< 12)\n", sum.ConcRuns)
		return 1
	}
	fmt.Println("all runs passed")
	return 0
}

// doClusterSweep explores the multi-node cases. Every run already
// self-checks determinism (workers=1 vs parallel fingerprints), so the
// quick gate only adds a distinct-schedule floor.
func doClusterSweep(configs, schedules int, seed uint64, quick, verbose bool) int {
	o := verify.Options{Configs: configs, Schedules: schedules, Seed: seed}
	if verbose {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	start := time.Now()
	sum := verify.ExploreCluster(o)
	fmt.Printf("explored %d cluster runs over %d configurations: %d distinct schedules\n",
		sum.Runs, sum.Configs, sum.DistinctSchedules)
	fmt.Fprintf(os.Stderr, "explored in %v\n", time.Since(start).Round(time.Millisecond))
	for _, f := range sum.Failures {
		fmt.Printf("FAIL %s\n  schedule %s\n  %s\n  replay: xhcverify -cluster -replay %#016x:%#016x\n",
			f.Case, f.Sched, f.Err, f.CfgSeed, f.SchedSeed)
	}
	if len(sum.Failures) > 0 {
		fmt.Printf("%d failing run(s)\n", len(sum.Failures))
		return 1
	}
	if quick && sum.DistinctSchedules < 20 {
		fmt.Printf("quick gate: only %d distinct cluster schedules (< 20)\n", sum.DistinctSchedules)
		return 1
	}
	fmt.Println("all cluster runs passed")
	return 0
}

func doClusterReplay(arg string) int {
	cfg, sched, err := parseReplay(arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	c, s := verify.DeriveClusterCase(cfg), verify.DeriveSchedule(sched)
	fmt.Printf("replaying %s\n  schedule %s\n", c, s)
	hash, rerr := verify.RunClusterCase(c, s)
	fmt.Printf("schedule fingerprint %#016x\n", hash)
	if rerr != nil {
		fmt.Printf("FAIL %s\n", rerr)
		return 1
	}
	fmt.Println("replay passed")
	return 0
}

func doSelfTest() int {
	bad := 0
	for _, o := range verify.RunMutationSelfTest(true) {
		status := "ok"
		if !o.OK {
			status = "MISSED"
			if !o.Mutant {
				status = "FAIL"
			}
			bad++
		}
		fmt.Printf("selftest %-18s %s", o.Name, status)
		if o.Mutant && o.OK {
			fmt.Printf("  (%s)", firstLine(o.Detail))
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("mutation self-test: %d problem(s)\n", bad)
		return 1
	}
	fmt.Println("mutation self-test passed: every seeded bug detected")
	return 0
}

func doReplay(arg string, reg *obs.Registry) int {
	cfg, sched, err := parseReplay(arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	c, s := verify.DeriveCase(cfg), verify.DeriveSchedule(sched)
	fmt.Printf("replaying %s\n  schedule %s\n", c, s)
	hash, rerr := verify.RunCaseObs(c, s, reg)
	fmt.Printf("schedule fingerprint %#016x\n", hash)
	if rerr != nil {
		fmt.Printf("FAIL %s\n", rerr)
		return 1
	}
	fmt.Println("replay passed")
	return 0
}

func parseReplay(arg string) (uint64, uint64, error) {
	parts := strings.SplitN(arg, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -replay %q: want cfgseed:schedseed", arg)
	}
	var seeds [2]uint64
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimPrefix(p, "0x"), 16, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad -replay seed %q: %v", p, err)
		}
		seeds[i] = v
	}
	return seeds[0], seeds[1], nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
