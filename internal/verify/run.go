package verify

import (
	"encoding/binary"
	"fmt"

	"xhc/internal/baselines"
	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// ReplayToken renders the (config, schedule) seed pair the way
// `xhcverify -replay` accepts it, so flight dumps name the exact run that
// reproduces them.
func ReplayToken(cfgSeed, schedSeed uint64) string {
	return fmt.Sprintf("%#016x:%#016x", cfgSeed, schedSeed)
}

// applyEngine installs the schedule's tie-breaker and wake jitter on a
// fresh engine. Everything derives from SchedSeed, so a replay installs
// bit-identical streams.
func applyEngine(eng *sim.Engine, s Schedule) {
	switch s.Tie {
	case 1:
		eng.SetTieBreaker(sim.NewRandomTieBreaker(mix(s.SchedSeed, 1)))
	case 2:
		eng.SetTieBreaker(sim.NewPCTTieBreaker(mix(s.SchedSeed, 2), 0))
	}
	if s.WakeJitterPS > 0 {
		jr := rng{state: mix(s.SchedSeed, 3)}
		span := uint64(s.WakeJitterPS)
		eng.SetWakeJitter(func() sim.Duration { return sim.Duration(jr.next() % span) })
	}
}

// opDelay is the fault-injected compute perturbation of one rank before
// one op: roughly a quarter of the ranks become stragglers (tens to
// hundreds of microseconds late); everyone else gets nanosecond-scale
// jitter. Zero without faults.
func (s Schedule) opDelay(rank, op int) sim.Duration {
	if !s.Faults {
		return 0
	}
	h := mix(s.SchedSeed, uint64(rank)<<16|uint64(op))
	if h%4 == 0 {
		us := 10 + (h>>8)%490
		return sim.Duration(us) * sim.Microsecond
	}
	ns := (h >> 8) % 2000
	return sim.Duration(ns) * sim.Nanosecond
}

// memSnap is the bounded-control-memory measurement after one op.
type memSnap struct {
	lines int64
	bufs  int
}

// runSim executes one case on the simulated node and checks every
// invariant: the engine terminates (no deadlock, no panicking process),
// every rank ends every op with the reference bytes, no coherence line
// holding control flags is written by two cores, and control-structure
// allocation stops growing after the first operation. It returns the
// schedule fingerprint alongside the verdict.
func runSim(c Case, s Schedule, what string, reg *obs.Registry,
	build func(w *env.World) (coll.Component, *core.Comm, error)) (uint64, error) {

	t, err := topo.New(c.Plat)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	m, err := t.Map(topo.MapCore, c.Ranks)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	w := env.NewWorld(t, m)
	eng := w.Sys.Eng
	applyEngine(eng, s)
	eng.EnableScheduleHash()
	tracker := installTracker(w.Sys)
	// Observe the world through the sweep's registry (unless a process-wide
	// env.Observer already did) and stamp the recorder with the replay
	// token, so an anomaly or failure dump names the run that reproduces it.
	if reg != nil && w.Obs == nil {
		wo := reg.NewWorld(what, t.NCores, obs.SimTicksPerUS, eng.Clock())
		wo.InitDistance(t, m)
		w.Obs = wo
		w.Sys.OnFlow = wo.FlowHook()
	}
	if w.Obs != nil {
		w.Obs.Rec.SetReplayToken(ReplayToken(c.CfgSeed, s.SchedSeed))
	}

	comp, xc, err := build(w)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	// The base Component interface carries bcast and allreduce; the other
	// collectives are capabilities only some components implement (the case
	// derivation and the pinned grids pair them accordingly).
	var (
		barrier   baselines.Barrierer
		reducer   baselines.Reducer
		gatherer  baselines.Allgatherer
		scatterer baselines.Scatterer
		ok        bool
	)
	switch c.Kind {
	case KindBarrier:
		if barrier, ok = comp.(baselines.Barrierer); !ok {
			return 0, fmt.Errorf("%s: component lacks Barrier", what)
		}
	case KindReduce:
		if reducer, ok = comp.(baselines.Reducer); !ok {
			return 0, fmt.Errorf("%s: component lacks Reduce", what)
		}
	case KindAllgather:
		if gatherer, ok = comp.(baselines.Allgatherer); !ok {
			return 0, fmt.Errorf("%s: component lacks Allgather", what)
		}
	case KindScatter:
		if scatterer, ok = comp.(baselines.Scatterer); !ok {
			return 0, fmt.Errorf("%s: component lacks Scatter", what)
		}
	}
	ref := buildRef(c)

	// Result buffers: per-rank blocks for most kinds, the full Ranks*Bytes
	// concatenation for allgather, an 8-byte arrival stamp for barrier.
	rlen := c.Bytes
	switch c.Kind {
	case KindBarrier:
		rlen = 8
	case KindAllgather:
		rlen = c.Bytes * c.Ranks
	}
	rbufs := make([]*mem.Buffer, c.Ranks)
	var sbufs []*mem.Buffer
	for r := 0; r < c.Ranks; r++ {
		rbufs[r] = w.NewBufferAt(fmt.Sprintf("vrf.r.%d", r), r, rlen)
	}
	switch c.Kind {
	case KindAllreduce, KindReduce, KindAllgather:
		sbufs = make([]*mem.Buffer, c.Ranks)
		for r := 0; r < c.Ranks; r++ {
			sbufs[r] = w.NewBufferAt(fmt.Sprintf("vrf.s.%d", r), r, c.Bytes)
		}
	case KindScatter:
		sbufs = make([]*mem.Buffer, c.Ranks)
		sbufs[c.Root] = w.NewBufferAt(fmt.Sprintf("vrf.s.%d", c.Root), c.Root, c.Bytes*c.Ranks)
	}

	// Registration-cache eviction faults: drop random ranks' caches at
	// fixed virtual times mid-run, as an adversarial stand-in for capacity
	// evictions. Only the XHC communicator exposes its caches.
	if s.Faults && xc != nil {
		dr := rng{state: mix(s.SchedSeed, 7)}
		for i := 0; i < 3; i++ {
			at := sim.Time(10+dr.next()%990) * sim.Time(sim.Microsecond)
			rank := int(dr.next() % uint64(c.Ranks))
			eng.At(at, func() {
				xc.Cache(rank).Drop()
				if w.Obs != nil {
					w.Obs.Rec.CountFault(obs.FaultEviction)
				}
			})
		}
	}

	var checkErr error
	snaps := make([]memSnap, c.Ops)
	runErr := w.Run(func(p *env.Proc) {
		for op := 0; op < c.Ops; op++ {
			p.HarnessBarrier()
			// Refill this rank's buffers (harness scaffolding: direct
			// writes plus a residency mark, no model time).
			switch c.Kind {
			case KindBcast:
				copy(rbufs[p.Rank].Data, ref.fill[op][p.Rank])
				p.Dirty(rbufs[p.Rank])
			case KindBarrier:
				// Stamps are written op-synchronously below.
			case KindScatter:
				if p.Rank == c.Root {
					copy(sbufs[p.Rank].Data, ref.fill[op][p.Rank])
					p.Dirty(sbufs[p.Rank])
				}
				fillJunk(rbufs[p.Rank].Data, uint64(op))
				p.Dirty(rbufs[p.Rank])
			default: // allreduce, reduce, allgather
				copy(sbufs[p.Rank].Data, ref.fill[op][p.Rank])
				p.Dirty(sbufs[p.Rank])
				fillJunk(rbufs[p.Rank].Data, uint64(op))
				p.Dirty(rbufs[p.Rank])
			}
			p.HarnessBarrier()
			if d := s.opDelay(p.Rank, op); d > 0 {
				if w.Obs != nil {
					if d >= 10*sim.Microsecond {
						w.Obs.Rec.CountFault(obs.FaultStraggler)
					} else {
						w.Obs.Rec.CountFault(obs.FaultPerturb)
					}
				}
				p.Compute(d)
			}
			switch c.Kind {
			case KindBcast:
				comp.Bcast(p, rbufs[p.Rank], 0, c.Bytes, c.Root)
			case KindAllreduce:
				comp.Allreduce(p, sbufs[p.Rank], rbufs[p.Rank], c.Bytes, c.Dt, c.Op)
			case KindReduce:
				reducer.Reduce(p, sbufs[p.Rank], rbufs[p.Rank], c.Bytes, c.Dt, c.Op, c.Root)
			case KindAllgather:
				gatherer.Allgather(p, sbufs[p.Rank], rbufs[p.Rank], c.Bytes)
			case KindScatter:
				scatterer.Scatter(p, sbufs[c.Root], rbufs[p.Rank], c.Bytes, c.Root)
			case KindBarrier:
				// Publish this op's arrival stamp (after any straggler
				// delay), enter the barrier, and on exit demand every peer's
				// stamp is current: no rank may leave a barrier a peer has
				// not yet entered.
				binary.LittleEndian.PutUint64(rbufs[p.Rank].Data, uint64(op+1))
				p.Dirty(rbufs[p.Rank])
				barrier.Barrier(p)
				if checkErr == nil {
					for rk := 0; rk < c.Ranks; rk++ {
						if got := binary.LittleEndian.Uint64(rbufs[rk].Data); got < uint64(op+1) {
							checkErr = fmt.Errorf("%s: op %d: rank %d left the barrier while rank %d's stamp is %d (want %d)",
								what, op, p.Rank, rk, got, op+1)
							break
						}
					}
				}
			}
			p.HarnessBarrier()
			if p.Rank == 0 {
				if checkErr == nil {
					checkErr = checkData(c, ref, rbufs, what, op)
				}
				snaps[op] = memSnap{lines: w.Sys.Stats.LinesAllocated, bufs: w.Sys.BuffersAllocated()}
			}
		}
	})
	hash := eng.ScheduleHash()
	// Any invariant failure dumps the flight recorder: the last N ops of
	// every rank, with the replay token, are the forensic record.
	fail := func(err error) (uint64, error) {
		if w.Obs != nil {
			w.Obs.Rec.DumpNow("failure", err.Error())
		}
		return hash, err
	}
	if runErr != nil {
		return fail(fmt.Errorf("%s: %w", what, runErr))
	}
	if checkErr != nil {
		return fail(checkErr)
	}
	if err := tracker.err(); err != nil {
		return fail(fmt.Errorf("%s: %w", what, err))
	}
	// Control structures are per-communicator: lazily built state may be
	// allocated during the first op, but from then on the counts must not
	// move.
	for op := 2; op < c.Ops; op++ {
		if snaps[op] != snaps[1] {
			return fail(fmt.Errorf("%s: control memory grows per operation: %d lines/%d buffers after op 2, %d/%d after op %d",
				what, snaps[1].lines, snaps[1].bufs, snaps[op].lines, snaps[op].bufs, op+1))
		}
	}
	return hash, nil
}

// checkData is the post-op oracle: every rank's result bytes against the
// reference, per the kind's contract. For the rooted collectives it also
// demands non-participating result buffers kept their junk — a backend must
// never use another rank's user buffer as scratch.
func checkData(c Case, ref *refData, rbufs []*mem.Buffer, what string, op int) error {
	switch c.Kind {
	case KindBcast, KindAllreduce:
		for rk := 0; rk < c.Ranks; rk++ {
			if diffBytes(rbufs[rk].Data[:c.Bytes], ref.want[op]) >= 0 {
				return dataError(what, op, rk, rbufs[rk].Data[:c.Bytes], ref.want[op])
			}
		}
	case KindReduce:
		if diffBytes(rbufs[c.Root].Data[:c.Bytes], ref.want[op]) >= 0 {
			return dataError(what, op, c.Root, rbufs[c.Root].Data[:c.Bytes], ref.want[op])
		}
		junk := make([]byte, c.Bytes)
		fillJunk(junk, uint64(op))
		for rk := 0; rk < c.Ranks; rk++ {
			if rk == c.Root {
				continue
			}
			if i := diffBytes(rbufs[rk].Data[:c.Bytes], junk); i >= 0 {
				return fmt.Errorf("%s: op %d: non-root rank %d result buffer written at byte %d", what, op, rk, i)
			}
		}
	case KindAllgather:
		n := c.Bytes * c.Ranks
		for rk := 0; rk < c.Ranks; rk++ {
			if diffBytes(rbufs[rk].Data[:n], ref.want[op]) >= 0 {
				return dataError(what, op, rk, rbufs[rk].Data[:n], ref.want[op])
			}
		}
	case KindScatter:
		for rk := 0; rk < c.Ranks; rk++ {
			want := ref.want[op][rk*c.Bytes : (rk+1)*c.Bytes]
			if diffBytes(rbufs[rk].Data[:c.Bytes], want) >= 0 {
				return dataError(what, op, rk, rbufs[rk].Data[:c.Bytes], want)
			}
		}
	}
	return nil
}

// RunCase checks one (case, schedule) pair across backends: the XHC
// communicator under the full invariant set, the case's baseline
// component, and the real-concurrency gxhc backend, all against the same
// reference bytes. The returned fingerprint identifies the XHC run's
// schedule.
func RunCase(c Case, s Schedule) (uint64, error) {
	return RunCaseObs(c, s, nil)
}

// RunCaseObs is RunCase with every backend's run observed through reg
// (nil for unobserved runs): latencies feed the registry's histograms,
// injected faults its counters, and failures dump the flight recorder
// with this run's replay token attached.
func RunCaseObs(c Case, s Schedule, reg *obs.Registry) (uint64, error) {
	cfg, err := c.coreConfig()
	if err != nil {
		return 0, err
	}
	hash, err := runSim(c, s, "xhc", reg, func(w *env.World) (coll.Component, *core.Comm, error) {
		cc, err := core.New(w, cfg)
		return cc, cc, err
	})
	if err != nil {
		return hash, err
	}
	if _, err := runSim(c, s, c.Baseline, reg, func(w *env.World) (coll.Component, *core.Comm, error) {
		comp, err := coll.New(c.Baseline, w)
		return comp, nil, err
	}); err != nil {
		return hash, err
	}
	if err := runGoComm(c, s, nil, reg); err != nil {
		return hash, err
	}
	// The concurrency phase runs last, in fresh worlds, so the runs above
	// (and the schedule fingerprint already computed) are untouched by it.
	if c.Conc != nil {
		if err := runConcSim(c, s, reg); err != nil {
			return hash, err
		}
		if err := runConcGxhc(c, nil, reg, concCleanDeadline); err != nil {
			return hash, err
		}
	}
	return hash, nil
}
