package verify

import (
	"fmt"
	"time"

	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/gxhc"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// The concurrency phase (Case.Conc) runs several communicators with
// overlapping rank sets on one node at once, every member keeping
// InFlight non-blocking requests outstanding per communicator, for
// Rounds cycles. It checks, on the simulated backend:
//
//   - termination: a lost completion suspends a waiter forever and the
//     engine's deadlock detector converts it into a failure;
//   - per-communicator FIFO completion order, observed through
//     non-consuming Done peeks over each issue window;
//   - per-request byte-exactness against deterministic per-slot fills;
//   - control-line isolation: the writeTracker's single-writer and
//     cross-communicator aliasing checks over every flag write, plus a
//     demand that at least two distinct communicator namespaces actually
//     wrote flags (the splits really ran).
//
// The real-concurrency gxhc backend runs the same shape under real
// goroutine scheduling with a wall-clock Test deadline standing in for
// the deadlock detector.

// concCleanDeadline bounds a clean gxhc concurrency run; generous because
// CI machines stall. concMutantDeadline is the lost-progress detection
// window for the mutation self-test (any timeout is the catch there).
const (
	concCleanDeadline  = 30 * time.Second
	concMutantDeadline = 2 * time.Second
)

// concFill writes the deterministic payload of one (communicator, round,
// slot, member) input buffer.
func concFill(c Case, comm, round, slot, sub int, dst []byte) {
	r := rng{state: mix(c.CfgSeed^0x636f6e63, uint64(comm)<<24|uint64(round)<<16|uint64(slot)<<8|uint64(sub))}
	for i := range dst {
		dst[i] = byte(r.next())
	}
}

// concJunk is the recognizable pre-fill of every output buffer: a backend
// that publishes completion without moving data leaves it in place.
func concJunk(comm, round, slot int, dst []byte) {
	fillJunk(dst, uint64(comm)<<16|uint64(round)<<8|uint64(slot))
}

// concRanks resolves a ConcComm's parent-rank list (nil means all).
func concRanks(c Case, cm ConcComm) []int {
	if cm.Ranks != nil {
		return cm.Ranks
	}
	all := make([]int, c.Ranks)
	for i := range all {
		all[i] = i
	}
	return all
}

// concWant computes the expected result bytes of one (comm, round, slot)
// op: the root's fill for bcast, the member concatenation for allgather,
// nil for barrier.
func concWant(c Case, cm ConcComm, comm, round, slot int) []byte {
	switch cm.Kind {
	case KindBcast:
		w := make([]byte, cm.Bytes)
		concFill(c, comm, round, slot, cm.Root, w)
		return w
	case KindAllgather:
		members := concRanks(c, cm)
		w := make([]byte, 0, cm.Bytes*len(members))
		blk := make([]byte, cm.Bytes)
		for sub := range members {
			concFill(c, comm, round, slot, sub, blk)
			w = append(w, blk...)
		}
		return w
	}
	return nil
}

// runConcSim executes the case's concurrency phase on the simulated node.
func runConcSim(c Case, s Schedule, reg *obs.Registry) error {
	cc := c.Conc
	what := "xhc-conc"
	t, err := topo.New(c.Plat)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	m, err := t.Map(topo.MapCore, c.Ranks)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	w := env.NewWorld(t, m)
	eng := w.Sys.Eng
	applyEngine(eng, s)
	tracker := installTracker(w.Sys)
	if reg != nil && w.Obs == nil {
		wo := reg.NewWorld(what, t.NCores, obs.SimTicksPerUS, eng.Clock())
		wo.InitDistance(t, m)
		w.Obs = wo
		w.Sys.OnFlow = wo.FlowHook()
	}
	if w.Obs != nil {
		w.Obs.Rec.SetReplayToken(ReplayToken(c.CfgSeed, s.SchedSeed))
	}

	cfg, err := c.coreConfig()
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	parent, err := core.New(w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	comms := []*core.Comm{parent}
	for i := 1; i < len(cc.Comms); i++ {
		ch, err := parent.Split(cc.Comms[i].Ranks, fmt.Sprintf("%d", i))
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		comms = append(comms, ch)
	}

	// membership[i] maps parent rank -> communicator i's sub-rank.
	membership := make([]map[int]int, len(cc.Comms))
	for i, cm := range cc.Comms {
		membership[i] = make(map[int]int)
		for sub, rk := range concRanks(c, cm) {
			membership[i][rk] = sub
		}
	}

	// One input buffer per (comm, member, slot), reused across rounds; a
	// separate output per (comm, member, slot) where the kind needs one.
	ins := make([][][]*mem.Buffer, len(cc.Comms))
	outs := make([][][]*mem.Buffer, len(cc.Comms))
	for i, cm := range cc.Comms {
		members := concRanks(c, cm)
		ins[i] = make([][]*mem.Buffer, len(members))
		outs[i] = make([][]*mem.Buffer, len(members))
		for sub, rk := range members {
			ins[i][sub] = make([]*mem.Buffer, cc.InFlight)
			outs[i][sub] = make([]*mem.Buffer, cc.InFlight)
			for slot := 0; slot < cc.InFlight; slot++ {
				switch cm.Kind {
				case KindBcast:
					ins[i][sub][slot] = w.NewBufferAt(fmt.Sprintf("conc.%d.%d.%d", i, sub, slot), rk, cm.Bytes)
				case KindAllgather:
					ins[i][sub][slot] = w.NewBufferAt(fmt.Sprintf("conc.%d.%d.%d", i, sub, slot), rk, cm.Bytes)
					outs[i][sub][slot] = w.NewBufferAt(fmt.Sprintf("conc.o.%d.%d.%d", i, sub, slot), rk, cm.Bytes*len(members))
				}
			}
		}
	}

	var checkErr error
	noteErr := func(err error) {
		if checkErr == nil {
			checkErr = err
		}
	}
	runErr := w.Run(func(p *env.Proc) {
		// Per-communicator proc views of this rank (nil: not a member).
		procs := make([]*env.Proc, len(comms))
		for i := range comms {
			if sub, in := membership[i][p.Rank]; in {
				if i == 0 {
					procs[i] = p
				} else {
					procs[i] = comms[i].W.ProcOn(p.S, sub)
				}
			}
		}
		for round := 0; round < cc.Rounds; round++ {
			p.HarnessBarrier()
			for i, cm := range cc.Comms {
				if procs[i] == nil {
					continue
				}
				sub := membership[i][p.Rank]
				for slot := 0; slot < cc.InFlight; slot++ {
					switch cm.Kind {
					case KindBcast:
						if sub == cm.Root {
							concFill(c, i, round, slot, sub, ins[i][sub][slot].Data)
						} else {
							concJunk(i, round, slot, ins[i][sub][slot].Data)
						}
						p.Dirty(ins[i][sub][slot])
					case KindAllgather:
						concFill(c, i, round, slot, sub, ins[i][sub][slot].Data)
						p.Dirty(ins[i][sub][slot])
						concJunk(i, round, slot, outs[i][sub][slot].Data)
						p.Dirty(outs[i][sub][slot])
					}
				}
			}
			p.HarnessBarrier()
			if d := s.opDelay(p.Rank, round); d > 0 {
				if w.Obs != nil {
					if d >= 10*sim.Microsecond {
						w.Obs.Rec.CountFault(obs.FaultStraggler)
					} else {
						w.Obs.Rec.CountFault(obs.FaultPerturb)
					}
				}
				p.Compute(d)
			}
			// Issue slot-major so the communicators' streams interleave
			// request by request on every rank.
			reqs := make([][]*core.Request, len(comms))
			for slot := 0; slot < cc.InFlight; slot++ {
				for i, cm := range cc.Comms {
					if procs[i] == nil {
						continue
					}
					sub := membership[i][p.Rank]
					pi := procs[i]
					var r *core.Request
					switch cm.Kind {
					case KindBcast:
						r = comms[i].Ibcast(pi, ins[i][sub][slot], 0, cm.Bytes, cm.Root)
					case KindAllgather:
						r = comms[i].Iallgather(pi, ins[i][sub][slot], outs[i][sub][slot], cm.Bytes)
					case KindBarrier:
						r = comms[i].Ibarrier(pi)
					}
					reqs[i] = append(reqs[i], r)
				}
			}
			// FIFO completion order per communicator, observed without
			// consuming: whenever a later request is done, every earlier
			// one must be too.
			for i := range reqs {
				rs := reqs[i]
				for j := len(rs) - 1; j > 0; j-- {
					if rs[j].Done() && !rs[j-1].Done() {
						noteErr(fmt.Errorf("%s: round %d rank %d comm %d: request %d completed before request %d",
							what, round, p.Rank, i, j, j-1))
					}
				}
			}
			// Bounded Test polls (never unbounded: a lost completion must
			// fall through to Wait so the deadlock detector can fire), then
			// Wait out the rest in issue order.
			consumed := make([]int, len(comms))
			for poll := 0; poll < 2*cc.InFlight; poll++ {
				for i := range reqs {
					if consumed[i] < len(reqs[i]) && reqs[i][consumed[i]].Test(procs[i]) {
						consumed[i]++
					}
				}
			}
			for i := range reqs {
				for _, r := range reqs[i][consumed[i]:] {
					r.Wait(procs[i])
				}
			}
			p.HarnessBarrier()
			if p.Rank == 0 && checkErr == nil {
				noteErr(checkConcData(c, what, round, ins, outs))
			}
		}
	})
	fail := func(err error) error {
		if w.Obs != nil {
			w.Obs.Rec.DumpNow("failure", err.Error())
		}
		return err
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
	if len(comms) > 1 && tracker.commTags() < 2 {
		return fail(fmt.Errorf("%s: %d communicators ran but only %d flag namespace(s) wrote flags",
			what, len(comms), tracker.commTags()))
	}
	return nil
}

// checkConcData compares every communicator's round results against the
// deterministic reference.
func checkConcData(c Case, what string, round int, ins, outs [][][]*mem.Buffer) error {
	cc := c.Conc
	for i, cm := range cc.Comms {
		members := concRanks(c, cm)
		for slot := 0; slot < cc.InFlight; slot++ {
			want := concWant(c, cm, i, round, slot)
			for sub := range members {
				switch cm.Kind {
				case KindBcast:
					if diffBytes(ins[i][sub][slot].Data, want) >= 0 {
						return dataError(fmt.Sprintf("%s: round %d comm %d slot %d", what, round, i, slot),
							round, sub, ins[i][sub][slot].Data, want)
					}
				case KindAllgather:
					if diffBytes(outs[i][sub][slot].Data, want) >= 0 {
						return dataError(fmt.Sprintf("%s: round %d comm %d slot %d", what, round, i, slot),
							round, sub, outs[i][sub][slot].Data, want)
					}
				}
			}
		}
	}
	return nil
}

// runConcGxhc executes the case's concurrency phase on the
// real-concurrency backend: one goroutine per parent rank, every split a
// self-contained gxhc communicator, completions consumed through Test
// loops bounded by a wall-clock deadline (the real-time stand-in for the
// simulator's deadlock detector — a lost completion times every rank
// out).
func runConcGxhc(c Case, chaos *proto.Chaos, reg *obs.Registry, deadline time.Duration) error {
	cc := c.Conc
	what := "gxhc-conc"
	gcfg := gxhc.Config{
		GroupSize:  2 + int(c.CfgSeed%3),
		ChunkBytes: c.Chunk,
		Chaos:      chaos,
	}
	parent, err := gxhc.New(c.Ranks, gcfg)
	if err != nil {
		return err
	}
	comms := []*gxhc.Comm{parent}
	for i := 1; i < len(cc.Comms); i++ {
		ch, err := parent.Split(cc.Comms[i].Ranks)
		if err != nil {
			return err
		}
		comms = append(comms, ch)
	}
	var wo *obs.World
	if reg != nil {
		wo = reg.NewWorld(what, c.Ranks, obs.WallTicksPerUS, obs.WallClock())
		wo.Rec.Backend = what
		wo.Rec.SetReplayToken(ReplayToken(c.CfgSeed, 0))
		parent.AttachRecorder(wo.Rec)
	}

	membership := make([]map[int]int, len(cc.Comms))
	for i, cm := range cc.Comms {
		membership[i] = make(map[int]int)
		for sub, rk := range concRanks(c, cm) {
			membership[i][rk] = sub
		}
	}

	// All payloads are pre-filled and checked outside the goroutines, one
	// distinct buffer per (comm, member, round, slot): in-flight windows
	// never share bytes, so the post-run check is single-threaded.
	ins := make([][][][][]byte, len(cc.Comms))  // [comm][sub][round][slot]
	outs := make([][][][][]byte, len(cc.Comms)) // allgather outputs
	for i, cm := range cc.Comms {
		members := concRanks(c, cm)
		ins[i] = make([][][][]byte, len(members))
		outs[i] = make([][][][]byte, len(members))
		for sub := range members {
			ins[i][sub] = make([][][]byte, cc.Rounds)
			outs[i][sub] = make([][][]byte, cc.Rounds)
			for round := 0; round < cc.Rounds; round++ {
				ins[i][sub][round] = make([][]byte, cc.InFlight)
				outs[i][sub][round] = make([][]byte, cc.InFlight)
				for slot := 0; slot < cc.InFlight; slot++ {
					switch cm.Kind {
					case KindBcast:
						b := make([]byte, cm.Bytes)
						if sub == cm.Root {
							concFill(c, i, round, slot, sub, b)
						} else {
							concJunk(i, round, slot, b)
						}
						ins[i][sub][round][slot] = b
					case KindAllgather:
						b := make([]byte, cm.Bytes)
						concFill(c, i, round, slot, sub, b)
						ins[i][sub][round][slot] = b
						o := make([]byte, cm.Bytes*len(members))
						concJunk(i, round, slot, o)
						outs[i][sub][round][slot] = o
					}
				}
			}
		}
	}

	errs := make([]error, c.Ranks)
	done := make(chan int, c.Ranks)
	for r := 0; r < c.Ranks; r++ {
		go func(rank int) {
			defer func() { done <- rank }()
			limit := time.Now().Add(deadline)
			noteErr := func(err error) {
				if errs[rank] == nil {
					errs[rank] = err
				}
			}
			for round := 0; round < cc.Rounds; round++ {
				reqs := make([][]*gxhc.Request, len(comms))
				for slot := 0; slot < cc.InFlight; slot++ {
					for i, cm := range cc.Comms {
						sub, in := membership[i][rank]
						if !in {
							continue
						}
						var r *gxhc.Request
						switch cm.Kind {
						case KindBcast:
							r = comms[i].Ibcast(sub, ins[i][sub][round][slot], cm.Root)
						case KindAllgather:
							r = comms[i].Iallgather(sub, ins[i][sub][round][slot], outs[i][sub][round][slot])
						case KindBarrier:
							r = comms[i].Ibarrier(sub)
						}
						reqs[i] = append(reqs[i], r)
					}
				}
				for i := range reqs {
					rs := reqs[i]
					for j := len(rs) - 1; j > 0; j-- {
						if rs[j].Done() && !rs[j-1].Done() {
							noteErr(fmt.Errorf("%s: round %d rank %d comm %d: request %d completed before request %d",
								what, round, rank, i, j, j-1))
						}
					}
				}
				for i := range reqs {
					for j, r := range reqs[i] {
						for !r.Test() {
							if time.Now().After(limit) {
								noteErr(fmt.Errorf("%s: round %d rank %d comm %d: request %d never completed within %v (lost progress)",
									what, round, rank, i, j, deadline))
								return
							}
						}
					}
				}
			}
		}(r)
	}
	timedOut := false
	for n := 0; n < c.Ranks; n++ {
		<-done
	}
	for _, e := range errs {
		if e != nil {
			timedOut = true
		}
	}
	// Workers of a timed-out run still hold queued requests; skip Close
	// (the communicators are garbage after this either way) but report.
	if !timedOut {
		for _, cm := range comms {
			cm.Close()
		}
	}
	if wo != nil {
		wo.Finish(mem.Stats{}, sim.EngineStats{})
	}
	for _, e := range errs {
		if e != nil {
			if wo != nil {
				wo.Rec.DumpNow("failure", e.Error())
			}
			return e
		}
	}
	// Byte-exactness, single-threaded after every goroutine joined.
	for i, cm := range cc.Comms {
		members := concRanks(c, cm)
		for round := 0; round < cc.Rounds; round++ {
			for slot := 0; slot < cc.InFlight; slot++ {
				want := concWant(c, cm, i, round, slot)
				for sub := range members {
					var got []byte
					switch cm.Kind {
					case KindBcast:
						got = ins[i][sub][round][slot]
					case KindAllgather:
						got = outs[i][sub][round][slot]
					default:
						continue
					}
					if diffBytes(got, want) >= 0 {
						err := dataError(fmt.Sprintf("%s: round %d comm %d slot %d", what, round, i, slot),
							round, sub, got, want)
						if wo != nil {
							wo.Rec.DumpNow("failure", err.Error())
						}
						return err
					}
				}
			}
		}
	}
	return nil
}
