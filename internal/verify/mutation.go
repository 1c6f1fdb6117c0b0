package verify

import (
	"fmt"

	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/gxhc"
	"xhc/internal/mpi"
	"xhc/internal/sim"
)

// MutationOutcome reports one self-test entry: whether the run behaved as
// expected (clean variants pass, every seeded bug is caught).
type MutationOutcome struct {
	Name   string
	Mutant bool // false for the clean control runs
	OK     bool
	Detail string
}

// mutationCase is the base configuration the seeded bugs run on: a
// two-NUMA node with a two-level hierarchy, so there are pure members,
// intermediate (forwarding) leaders, and multi-member leaf groups — every
// role a mutant needs.
func mutationCase() Case {
	return Case{
		CfgSeed:       1,
		Plat:          platforms[1], // 1 socket x 2 NUMA x 4 cores
		Ranks:         8,
		Root:          0,
		Sens:          "numa",
		Kind:          KindBcast,
		Bytes:         32 << 10,
		Dt:            0,
		Op:            0,
		Chunk:         4 << 10,
		CICOThreshold: 1 << 10,
		Flags:         core.SingleFlag,
		RegCache:      true,
		Baseline:      "tuned",
		Ops:           4,
	}
}

// concMutationCase extends the mutation base case with a concurrency
// phase: the parent plus an overlapping split, every member keeping three
// small fusable broadcasts in flight.
func concMutationCase() Case {
	c := mutationCase()
	c.Conc = &ConcCase{
		InFlight: 3,
		Rounds:   2,
		Comms: []ConcComm{
			{Kind: KindBcast, Bytes: 256, Root: 1},
			{Ranks: []int{0, 2, 4, 6}, Kind: KindBcast, Bytes: 512, Root: 0},
		},
	}
	return c
}

// runConcMutant runs the concurrency phase with the given seeded bug under
// the plain FIFO schedule (deterministic batching, so the fused path the
// mutants target is guaranteed to form).
func runConcMutant(c Case, chaos *core.ChaosConfig) error {
	c.Chaos = chaos
	return runConcSim(c, Schedule{}, nil)
}

// faultSchedule is the perturbed schedule the clean control runs under:
// random tie-breaking, wake jitter and the full fault set. The unmutated
// protocol must survive it.
func faultSchedule() Schedule {
	return Schedule{SchedSeed: 0x5eed, Tie: 1, WakeJitterPS: int64(200 * sim.Nanosecond), Faults: true}
}

// runMutant runs the base case with the given seeded bug under the plain
// FIFO schedule (the mutants are constructed to be caught without needing
// schedule luck).
func runMutant(c Case, chaos *core.ChaosConfig) error {
	return runMutantSched(c, chaos, Schedule{})
}

// runMutantSched is runMutant under an explicit schedule, for the mutants
// whose detection needs a straggler or jitter to open the window.
func runMutantSched(c Case, chaos *core.ChaosConfig, s Schedule) error {
	c.Chaos = chaos
	cfg, err := c.coreConfig()
	if err != nil {
		return err
	}
	_, err = runSim(c, s, "xhc", nil, func(w *env.World) (coll.Component, *core.Comm, error) {
		cc, err := core.New(w, cfg)
		return cc, cc, err
	})
	return err
}

// RunMutationSelfTest exercises the checker against its seeded protocol
// bugs (DESIGN.md Section 10): the unmutated tree must pass — including
// under fault injection — and every mutant must be caught. includeGoComm
// adds the gxhc StaleReady mutant, which injects a genuine data race and
// therefore must be skipped under the race detector (the gxhc
// SkipResultPull mutant is race-clean and always runs).
func RunMutationSelfTest(includeGoComm bool) []MutationOutcome {
	var out []MutationOutcome
	record := func(name string, mutant bool, err error) {
		o := MutationOutcome{Name: name, Mutant: mutant}
		if mutant {
			o.OK = err != nil
			if err != nil {
				o.Detail = err.Error()
			} else {
				o.Detail = "NOT CAUGHT"
			}
		} else {
			o.OK = err == nil
			if err != nil {
				o.Detail = err.Error()
			}
		}
		out = append(out, o)
	}

	base := mutationCase()

	// Clean controls: FIFO and the full fault schedule.
	record("clean/fifo", false, runMutant(base, nil))
	c := base
	c.Chaos = nil
	cfg, _ := c.coreConfig()
	_, err := runSim(c, faultSchedule(), "xhc", nil, func(w *env.World) (coll.Component, *core.Comm, error) {
		cc, err := core.New(w, cfg)
		return cc, cc, err
	})
	record("clean/faults", false, err)

	// Termination: pure members never ack, leaders deadlock.
	record("skip-ack", true, runMutant(base, &core.ChaosConfig{SkipAck: true}))

	// Data: a forwarding leader announces its staged CICO copy before
	// performing it; its children pull the previous slot contents. The
	// CICO sizing makes the stale read certain (the child's copy lands
	// before the leader's two back-to-back copies can).
	early := base
	early.Bytes = 2 << 10
	early.CICOThreshold = 4 << 10
	record("early-ready", true, runMutant(early, &core.ChaosConfig{EarlyReady: true}))

	// Single-writer line discipline: member acks packed onto one line.
	record("shared-ack-line", true, runMutant(base, &core.ChaosConfig{SharedAckLine: true}))

	// Monotonicity: a rewound ack counter; shm's own defense fires.
	record("ack-regression", true, runMutant(base, &core.ChaosConfig{AckRegression: true}))

	// The newer collectives, each with a clean control plus seeded bugs.
	barrier := base
	barrier.Kind = KindBarrier
	barrier.Bytes = 0
	record("barrier/clean", false, runMutantSched(barrier, nil, faultSchedule()))
	// Termination: a pure member never signals arrival; its leader's gather
	// hangs.
	record("barrier/skip-ack", true, runMutant(barrier, &core.ChaosConfig{SkipAck: true}))
	// Ordering: the release fires before the arrivals are gathered; under
	// the straggler schedule some rank exits while another's stamp is stale.
	record("barrier/early-ready", true, runMutantSched(barrier, &core.ChaosConfig{EarlyReady: true}, faultSchedule()))

	scatter := base
	scatter.Kind = KindScatter
	record("scatter/clean", false, runMutant(scatter, nil))
	// Termination: the subtree-ordered ack chain toward the root breaks.
	record("scatter/skip-ack", true, runMutant(scatter, &core.ChaosConfig{SkipAck: true}))
	// Data: the CICO root announces its staged blocks before the copy-in
	// lands; children drain the previous slot. Sized onto the CICO path
	// (blockLen <= threshold and N blocks fit in half the CICO buffer).
	scatterCICO := scatter
	scatterCICO.Bytes = 512
	scatterCICO.CICOThreshold = 8 << 10
	record("scatter/early-ready", true, runMutant(scatterCICO, &core.ChaosConfig{EarlyReady: true}))

	// Data: a reducer publishes its whole reduce_done slice before folding
	// anything; the root drains unreduced bytes.
	reduce := base
	reduce.Kind = KindReduce
	reduce.Root = 3
	record("reduce/clean", false, runMutant(reduce, nil))
	record("reduce/early-ready", true, runMutant(reduce, &core.ChaosConfig{EarlyReady: true}))

	// Data: a rank publishes its CICO push before staging its block; peers
	// assemble the previous op's slot contents. Under FIFO every rank's own
	// copy-in finishes before any peer reaches its slot, so the straggler
	// schedule is what opens the stale-read window (peers wake on the
	// straggler's early flag while its copy-in is still in flight).
	allgather := base
	allgather.Kind = KindAllgather
	allgather.Bytes = 512
	record("allgather/clean", false, runMutantSched(allgather, nil, faultSchedule()))
	record("allgather/early-ready", true, runMutantSched(allgather, &core.ChaosConfig{EarlyReady: true}, faultSchedule()))

	// The tuner mutant (DESIGN.md §17): a plan applied in the middle of an
	// operation instead of at the quiesced boundary ApplyTuning enforces.
	// Sized onto the CICO path (Bytes <= threshold): the root moves the
	// CICO/XPMEM boundary after it has dispatched; peers that dispatch the
	// same op afterwards take the XPMEM path and wait on an exposure the
	// root's CICO path never publishes — the deadlock detector converts the
	// hang. A clean control runs a legitimate boundary switch on the same
	// shape and must pass.
	tune := base
	tune.Bytes = 512
	tuneSwitch := tune
	tuneSwitch.Switch = &SwitchCase{AfterOp: 1, Chunk: 1 << 10, CICOThreshold: 0, FuseBytes: -1}
	record("tune/clean-switch", false, runMutant(tuneSwitch, nil))
	record("tune/mid-op-switch", true, runMutant(tune, &core.ChaosConfig{MidOpTune: true}))

	// The non-blocking concurrency runner (DESIGN.md §15): a clean control,
	// then the three request-layer mutants on the simulated backend. The
	// payloads sit inside the fusion size class, so the fused traversal is
	// on the path the mutants corrupt.
	conc := concMutationCase()
	// Termination: the worker runs the op but drops its completion; Wait
	// suspends forever and the deadlock detector converts it.
	record("iconc/clean", false, runConcMutant(conc, nil))
	record("iconc/lost-progress", true, runConcMutant(conc, &core.ChaosConfig{LostProgress: true}))
	// Data: completion published without running the body; the per-request
	// byte check sees the junk pre-fill.
	record("iconc/early-complete", true, runConcMutant(conc, &core.ChaosConfig{EarlyComplete: true}))
	// Data: the fused root stages sub-ops into swapped batch slots.
	record("iconc/fuse-corrupt", true, runConcMutant(conc, &core.ChaosConfig{FuseCorrupt: true}))

	// The same three on the real-concurrency backend. None of them injects
	// a data race (unlike StaleReady), so they run under the race detector
	// too; lost progress is caught by the wall-clock Test deadline.
	record("goconc/clean", false, runConcGxhc(conc, nil, nil, concCleanDeadline))
	record("goconc/lost-progress", true, runConcGxhc(conc, &gxhc.ChaosConfig{LostProgress: true}, nil, concMutantDeadline))
	record("goconc/early-complete", true, runConcGxhc(conc, &gxhc.ChaosConfig{EarlyComplete: true}, nil, concCleanDeadline))
	record("goconc/fuse-corrupt", true, runConcGxhc(conc, &gxhc.ChaosConfig{FuseCorrupt: true}, nil, concCleanDeadline))

	// Data: every top-group reducer of a gxhc allreduce takes the
	// sole-reducer shortcut (no wait on the top leader's ready, no copy of
	// the result outside its own slice) while another reducer owns the rest.
	// 9 ranks at GroupSize 3 (runGoComm derives it from CfgSeed 1) give a
	// top group of three: two reducers with half the vector each, so the
	// skipping reducers and the ranks they lead return with their NaN
	// prefill in the other half — caught whatever the schedule. One op per
	// rank keeps the mutant race-clean (DESIGN.md §10), so it also runs
	// under the race detector.
	srp := base
	srp.Ranks = 9
	srp.Kind = KindAllreduce
	srp.Dt = mpi.Float64
	srp.Op = mpi.Sum
	srp.Bytes = 64 << 10
	srp.Ops = 1
	record("gocomm/allreduce-clean", false, runGoComm(srp, Schedule{}, nil, nil))
	record("gocomm/skip-result-pull", true, runGoComm(srp, Schedule{}, &gxhc.ChaosConfig{SkipResultPull: true}, nil))

	if includeGoComm {
		gc := base
		gc.Ranks = 9
		gc.Chunk = 4 << 10
		gc.Bytes = 64 << 10
		fs := faultSchedule() // the straggling root is what exposes the mutant
		record("gocomm/clean", false, runGoComm(gc, fs, nil, nil))
		record("gocomm/stale-ready", true, runGoComm(gc, fs, &gxhc.ChaosConfig{StaleReady: true}, nil))
	}
	return out
}

// SelfTestError folds outcomes into a single error (nil when all OK).
func SelfTestError(outs []MutationOutcome) error {
	for _, o := range outs {
		if !o.OK {
			return fmt.Errorf("mutation self-test: %s: %s", o.Name, o.Detail)
		}
	}
	return nil
}
