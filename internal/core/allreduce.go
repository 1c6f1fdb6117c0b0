package core

import (
	"fmt"
	"sort"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/shm"
	"xhc/internal/sim"
	"xhc/internal/xpmem"
)

// Allreduce reduces the n bytes of sbuf (dt elements, op) across all ranks
// and leaves the result in every rank's rbuf, following the paper's
// Section IV-B: a hierarchical, index-partitioned reduction toward the
// internal root (rank 0), overlapped with a pipelined broadcast of the
// result.
func (c *Comm) Allreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	if !c.queued(p, proto.KindAllreduce, sbuf, rbuf, 0, n, 0, dt, op) {
		c.allreduce(p, sbuf, rbuf, n, dt, op, true, 0)
	}
}

// Reduce reduces into root's rbuf only (the paper's "ongoing work"
// primitive). Non-root ranks' rbuf arguments are ignored; internal scratch
// accumulators are used at non-root leaders.
func (c *Comm) Reduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, root int) {
	if !c.queued(p, proto.KindReduce, sbuf, rbuf, 0, n, root, dt, op) {
		c.allreduce(p, sbuf, rbuf, n, dt, op, false, root)
	}
}

// reduceCheck rejects buffers too short for n bytes: sbuf on every rank,
// rbuf on every rank of an allreduce and on a reduce's root. It runs
// before the op touches a flag, so the offending rank fails, not a peer
// that copies from its buffer.
func (c *Comm) reduceCheck(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, bcast bool, root int) {
	sizeCheck(sbuf, 0, n)
	if bcast || p.Rank == root {
		sizeCheck(rbuf, 0, n)
	}
}

func (c *Comm) allreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, bcast bool, root int) {
	c.reduceCheck(p, sbuf, rbuf, n, bcast, root)
	es := dt.Size()
	if n%es != 0 {
		panic(fmt.Sprintf("core: allreduce size %d not a multiple of %s", n, dt))
	}
	st := c.stateFor(root)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	opCode := obs.OpAllreduce
	if !bcast {
		opCode = obs.OpReduce
	}
	pc := c.clocks.Start(p.Rank, opCode, view.opSeq, int64(n), st.h.NLevels())
	if n == 0 {
		c.ack(p, st, view, pc)
		pc.Finish()
		return
	}

	// The accumulator of a leader is its result buffer: rbuf for allreduce
	// (and for the root in reduce); internal scratch otherwise.
	acc := rbuf
	if !bcast && p.Rank != root {
		acc = c.scratchFor(p.Rank, n)
	}

	cico := n <= c.Cfg.CICOThreshold
	if cico {
		c.cicoAllreduce(p, st, view, sbuf, acc, rbuf, n, dt, op, bcast, root, pc)
	} else {
		c.xpmemAllreduce(p, st, view, sbuf, acc, rbuf, n, dt, op, bcast, root, pc)
	}

	// Advance the monotonic counter mirrors for the next operation.
	for l := 0; l < st.h.NLevels(); l++ {
		view.cumBytes[l] += uint64(n)
		view.redCum[l] += uint64(n)
		gs, ok := st.groupOf(l, p.Rank)
		if !ok {
			continue
		}
		minChunk := c.Cfg.ReduceMinChunk
		if cico {
			minChunk = c.Cfg.CICOMinReduce
		}
		for m, sl := range c.reducePartition(gs, n, dt.Size(), minChunk) {
			view.bumpRedDone(l, m, uint64(sl[1]-sl[0]))
		}
	}
	c.ack(p, st, view, pc)
	if !bcast {
		// A rooted reduce skips the broadcast phase, so nothing else orders a
		// member's return after the sibling reducers that read its exposed
		// sbuf (or scratch accumulator). Hold until every co-member of the
		// pull group has acked — only then may the caller reuse those
		// buffers. The group leader is excluded: it never acks into its own
		// led group (and only reads contributions before acking anyway).
		if plan := &st.plans[p.Rank]; plan.HasPull {
			gs := plan.Pull.G
			var flags []*shm.Flag
			for _, m := range gs.g.Members {
				if m != p.Rank && m != gs.leader {
					flags = append(flags, gs.acks[m])
				}
			}
			shm.WaitAllGE(p.S, p.Core, flags, view.opSeq)
			pc.Mark(-1, obs.PhaseAck, 0)
		}
	}
	pc.Finish()
}

// scratchFor returns (growing on demand) rank's internal accumulator.
func (c *Comm) scratchFor(rank, n int) *mem.Buffer {
	if c.scratch[rank] == nil || c.scratch[rank].Len() < n {
		c.scratch[rank] = c.W.NewBufferAt(c.name("scratch.%d", rank), rank, n)
	}
	return c.scratch[rank]
}

// reducePartition returns the byte slices of an n-byte message assigned to
// each reducer (the non-leader members, ascending). A minimum slice of
// ReduceMinChunk bytes applies, so small messages are reduced by a single
// member (paper: "with a single or only a few elements, only one member in
// each group will reduce").
func (c *Comm) reducePartition(gs *groupState, n, es, minChunk int) map[int][2]int {
	var reducers []int
	for _, m := range gs.g.Members {
		if m != gs.leader {
			reducers = append(reducers, m)
		}
	}
	sort.Ints(reducers)
	out := make(map[int][2]int, len(reducers))
	if len(reducers) == 0 {
		return out
	}
	active := (n + minChunk - 1) / minChunk
	if active < 1 {
		active = 1
	}
	if active > len(reducers) {
		active = len(reducers)
	}
	elems := n / es
	per, rem := elems/active, elems%active
	start := 0
	for i, m := range reducers {
		if i >= active {
			out[m] = [2]int{start, start}
			continue
		}
		e := per
		if i < rem {
			e++
		}
		end := start + e*es
		out[m] = [2]int{start, end}
		start = end
	}
	return out
}

// contributionOf resolves participant m's contribution buffer handle and
// offset at a level: the exposed send buffer at the leaf level, the
// exposed accumulator above.
func waitContribution(p *env.Proc, gs *groupState, m int, opSeq uint64) (xpmem.Handle, int) {
	gs.redExpSeq[m].WaitGE(p.S, p.Core, opSeq)
	return gs.redExposed[m], gs.redExposedOff[m]
}

// pollInterval scales the leader's progress-loop poll period with the
// message size (polling is how the paper's leaders monitor reduce_done).
func (c *Comm) pollInterval(n int) sim.Duration {
	d := sim.BytesOver(int64(n), c.W.Sys.Params.MemBW) / 16
	if d < 200*sim.Nanosecond {
		d = 200 * sim.Nanosecond
	}
	if d > 3*sim.Microsecond {
		d = 3 * sim.Microsecond
	}
	return d
}

// xpmemAllreduce is the single-copy path.
func (c *Comm) xpmemAllreduce(p *env.Proc, st *commState, view *rankView, sbuf, acc, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, bcast bool, root int, pc *obs.OpClock) {
	plan := &st.plans[p.Rank]
	pl := plan.PullLevel()
	es := dt.Size()

	// --- Step 1: preparation / exposure ---
	// Contribution at the pull level: sbuf for leaf members, acc above.
	if pl >= 0 {
		gs := plan.Pull.G
		contrib, ready := sbuf, uint64(n)
		if pl > 0 {
			contrib, ready = acc, 0 // published progressively by monitoring
		}
		gs.redExposed[p.Rank] = xpmem.Expose(contrib)
		gs.redExposedOff[p.Rank] = 0
		gs.redExpSeq[p.Rank].Set(p.S, p.Core, view.opSeq)
		if ready > 0 || pl == 0 {
			gs.redReady[p.Rank].Set(p.S, p.Core, view.redCum[pl]+ready)
		}
	}
	// Leaders expose their accumulator per led group; leaf-level leaders
	// additionally expose sbuf as their own contribution.
	for _, lr := range plan.Lead {
		gs, l := lr.G, lr.Level
		gs.accExposed = xpmem.Expose(acc)
		gs.accExposedOff = 0
		gs.accExpSeq.Set(p.S, p.Core, view.opSeq)
		contrib := acc
		if l == 0 {
			contrib = sbuf
		}
		gs.redExposed[p.Rank] = xpmem.Expose(contrib)
		gs.redExposedOff[p.Rank] = 0
		gs.redExpSeq[p.Rank].Set(p.S, p.Core, view.opSeq)
		if l == 0 {
			gs.redReady[p.Rank].Set(p.S, p.Core, view.redCum[0]+uint64(n))
		}
	}
	pc.Mark(-1, obs.PhaseExpose, 0)

	if len(plan.Lead) == 0 {
		// Pure member: blocking reduction work, then the broadcast pull.
		c.memberReduceSlice(p, st, view, pl, n, es, dt, op, pc)
		if bcast {
			proto.Pull(c.mem(p, pc), plan, view.opSeq, view.cumBytes, rbuf, 0, n)
		}
		return
	}
	c.leaderProgressLoop(p, st, view, sbuf, acc, rbuf, n, es, dt, op, bcast, root, plan, pl, pc)
}

// memberReduceSlice performs this rank's share of the intra-group
// reduction at level pl (paper step 2a), blocking on the participants'
// reduce_ready counters chunk by chunk.
func (c *Comm) memberReduceSlice(p *env.Proc, st *commState, view *rankView, pl, n, es int, dt mpi.Datatype, op mpi.Op, pc *obs.OpClock) {
	gs, _ := st.groupOf(pl, p.Rank)
	part := c.reducePartition(gs, n, es, c.Cfg.ReduceMinChunk)
	slice := part[p.Rank]
	s, e := slice[0], slice[1]
	doneBase := view.redDoneBase(pl)
	if s == e {
		gs.redDone[p.Rank].Set(p.S, p.Core, doneBase)
		pc.Mark(pl, obs.PhaseReduceSlice, 0)
		return
	}
	redBase := view.redCum[pl]
	chunk := c.chunkAt(pl)
	early := c.chaos.EarlyReady
	if early {
		// Mutation: publish the whole slice as reduced before any of the
		// reduction work ran — the leader forwards (or the root drains)
		// unreduced bytes.
		gs.redDone[p.Rank].Set(p.S, p.Core, doneBase+uint64(e-s))
	}

	// Attach the accumulator and every participant's contribution.
	gs.accExpSeq.WaitGE(p.S, p.Core, view.opSeq)
	pc.MarkFrom(pl, obs.PhaseFlagWait, 0, gs.leader)
	accB := c.caches[p.Rank].Attach(p.S, gs.accExposed)
	accOff := gs.accExposedOff
	srcs := make(map[int]*mem.Buffer, len(gs.g.Members))
	offs := make(map[int]int, len(gs.g.Members))
	for _, m := range gs.g.Members {
		h, o := waitContribution(p, gs, m, view.opSeq)
		srcs[m] = c.caches[p.Rank].Attach(p.S, h)
		offs[m] = o
	}
	pc.Mark(pl, obs.PhaseExpose, 0)

	var readyFlags []*shm.Flag
	for _, m := range gs.g.Members {
		readyFlags = append(readyFlags, gs.redReady[m])
	}
	for cur := s; cur < e; {
		step := min(chunk, e-cur)
		shm.WaitAllGE(p.S, p.Core, readyFlags, redBase+uint64(cur+step))
		pc.Mark(pl, obs.PhaseFlagWait, 0)
		c.reduceChunk(p, gs, accB, accOff, srcs, offs, cur, step, dt, op)
		cur += step
		if !early {
			gs.redDone[p.Rank].Set(p.S, p.Core, doneBase+uint64(cur-s))
		}
		pc.Mark(pl, obs.PhaseReduceSlice, int64(step))
	}
}

// reduceChunk folds every participant's contribution chunk into the
// accumulator: the leader's contribution seeds the chunk (in place when the
// accumulator is the contribution), then each other participant is
// streamed in and reduced.
func (c *Comm) reduceChunk(p *env.Proc, gs *groupState, acc *mem.Buffer, accOff int, srcs map[int]*mem.Buffer, offs map[int]int, cur, step int, dt mpi.Datatype, op mpi.Op) {
	leader := gs.leader
	if srcs[leader] != acc {
		p.Copy(acc, accOff+cur, srcs[leader], offs[leader]+cur, step)
	}
	for _, m := range gs.g.Members {
		if m == leader {
			continue
		}
		src := srcs[m]
		soff := offs[m]
		p.ChargeRead(src, soff+cur, step)
		mpi.ReduceBytes(op, dt, acc.Data[accOff+cur:accOff+cur+step], src.Data[soff+cur:soff+cur+step])
		p.ChargeCompute(step)
	}
	p.Dirty(acc)
}

// leaderProgressLoop interleaves every role a leader has during an
// allreduce — monitoring its groups' reduce_done counters and publishing
// its own reduce_ready upward (step 2b), its own reduction slice at its
// pull level, triggering/forwarding the broadcast (step 3) — in a polling
// loop, the way the paper describes leaders operating.
func (c *Comm) leaderProgressLoop(p *env.Proc, st *commState, view *rankView, sbuf, acc, rbuf *mem.Buffer, n, es int, dt mpi.Datatype, op mpi.Op, bcast bool, root int, plan *proto.Plan[*groupState], pl int, pc *obs.OpClock) {
	lead := plan.Lead
	type monitorState struct {
		gs        *groupState
		part      map[int][2]int
		reducers  []int
		sliceDone map[int]uint64
		prefix    int
		published int
		selfOnly  bool
		seeded    bool
	}
	monitors := make([]*monitorState, 0, len(lead))
	for _, lr := range lead {
		gs := lr.G
		ms := &monitorState{gs: gs, part: c.reducePartition(gs, n, es, c.Cfg.ReduceMinChunk), sliceDone: map[int]uint64{}}
		for _, m := range gs.g.Members {
			if m != gs.leader {
				ms.reducers = append(ms.reducers, m)
			}
		}
		sort.Ints(ms.reducers)
		ms.selfOnly = len(ms.reducers) == 0
		monitors = append(monitors, ms)
	}

	// The leader's own slice at its pull level (non-blocking variant).
	type sliceState struct {
		gs       *groupState
		s, e     int
		cur      int
		attached bool
		accB     *mem.Buffer
		accOff   int
		srcs     map[int]*mem.Buffer
		offs     map[int]int
		ready    map[int]uint64
	}
	var sl *sliceState
	if pl >= 0 {
		gs, _ := st.groupOf(pl, p.Rank)
		part := c.reducePartition(gs, n, es, c.Cfg.ReduceMinChunk)
		sc := part[p.Rank]
		sl = &sliceState{gs: gs, s: sc[0], e: sc[1], cur: sc[0], ready: map[int]uint64{}}
		if sl.s == sl.e {
			gs.redDone[p.Rank].Set(p.S, p.Core, view.redDoneBase(pl))
			sl = nil
		}
	}

	// Broadcast forwarding state (leaders pull the final result from their
	// parent and propagate availability to their groups, exactly as in
	// Bcast; the root publishes directly from its top-group monitor).
	isRoot := p.Rank == root
	var bcSrc *mem.Buffer
	bcSoff := 0
	bcCopied := 0
	bcAttached := false
	m := c.mem(p, pc)
	if bcast {
		for i := range lead {
			m.Expose(&lead[i], rbuf, 0, 0)
			m.Set(&lead[i], proto.Exp, view.opSeq)
		}
	}

	poll := c.pollInterval(n)
	for {
		progressed := false
		done := true
		// Phase attribution: a leader interleaves its roles, so each loop
		// iteration's segment is attributed to the dominant activity —
		// reduction work, chunk forwarding, or (otherwise) flag polling.
		reducedIter, copiedIter := 0, 0

		// Role: monitor led groups, publish reduce_ready upward (or the
		// broadcast counters when this rank is the internal root).
		for li, ms := range monitors {
			l := lead[li].Level
			if ms.prefix >= n {
				continue
			}
			if ms.selfOnly && !ms.seeded {
				// Single-member group: the accumulator must take the
				// leader's own contribution directly.
				if l == 0 {
					p.Copy(acc, 0, sbuf, 0, n)
					ms.prefix = n
					ms.seeded = true
					progressed = true
					reducedIter += n
				} else {
					// Contribution is acc itself; prefix follows the level
					// below, handled by the monitor of level l-1 publishing
					// into redReady — mirror it locally.
					ms.prefix = monitors[li-1].published
					ms.seeded = ms.prefix >= n
					if ms.prefix > ms.published {
						progressed = true
					}
				}
			} else if !ms.selfOnly {
				// Poll reduce_done of each reducer; compute the contiguous
				// prefix across the ordered slices.
				for _, m := range ms.reducers {
					sz := uint64(ms.part[m][1] - ms.part[m][0])
					if ms.sliceDone[m] >= sz {
						continue
					}
					v := ms.gs.redDone[m].Read(p.S, p.Core)
					base := view.redDoneBaseOf(l, m)
					if v > base {
						d := v - base
						if d > sz {
							d = sz
						}
						if d != ms.sliceDone[m] {
							ms.sliceDone[m] = d
							progressed = true
						}
					}
				}
				prefix := 0
				for _, m := range ms.reducers {
					s0, e0 := ms.part[m][0], ms.part[m][1]
					prefix = s0 + int(ms.sliceDone[m])
					if int(ms.sliceDone[m]) < e0-s0 {
						break
					}
					prefix = e0
				}
				if prefix > n {
					prefix = n
				}
				ms.prefix = prefix
			}
			if ms.prefix > ms.published {
				ms.published = ms.prefix
				progressed = true
				// Publish the new prefix one level up: as this rank's
				// contribution counter at level l+1 (step 2b), or — when
				// this led group is the hierarchy's top — as the broadcast
				// trigger (step 3).
				if l+1 >= st.h.NLevels() {
					if bcast {
						proto.Announce(m, plan, view.cumBytes, uint64(ms.published))
					}
				} else {
					up, _ := st.groupOf(l+1, p.Rank)
					up.redReady[p.Rank].Set(p.S, p.Core, view.redCum[l+1]+uint64(ms.published))
				}
			}
			if ms.prefix < n {
				done = false
			}
		}

		// Role: own reduction slice at the pull level (non-blocking).
		if sl != nil && sl.cur < sl.e {
			done = false
			if !sl.attached {
				if sl.gs.accExpSeq.Read(p.S, p.Core) >= view.opSeq {
					allExposed := true
					for _, m := range sl.gs.g.Members {
						if sl.gs.redExpSeq[m].Read(p.S, p.Core) < view.opSeq {
							allExposed = false
							break
						}
					}
					if allExposed {
						sl.accB = c.caches[p.Rank].Attach(p.S, sl.gs.accExposed)
						sl.accOff = sl.gs.accExposedOff
						sl.srcs = make(map[int]*mem.Buffer)
						sl.offs = make(map[int]int)
						for _, m := range sl.gs.g.Members {
							sl.srcs[m] = c.caches[p.Rank].Attach(p.S, sl.gs.redExposed[m])
							sl.offs[m] = sl.gs.redExposedOff[m]
						}
						sl.attached = true
						progressed = true
					}
				}
			}
			if sl.attached {
				chunk := c.chunkAt(pl)
				for sl.cur < sl.e {
					step := min(chunk, sl.e-sl.cur)
					ok := true
					for _, m := range sl.gs.g.Members {
						need := view.redCum[pl] + uint64(sl.cur+step)
						if sl.ready[m] < need {
							sl.ready[m] = sl.gs.redReady[m].Read(p.S, p.Core)
						}
						if sl.ready[m] < need {
							ok = false
							break
						}
					}
					if !ok {
						break
					}
					c.reduceChunk(p, sl.gs, sl.accB, sl.accOff, sl.srcs, sl.offs, sl.cur, step, dt, op)
					sl.cur += step
					sl.gs.redDone[p.Rank].Set(p.S, p.Core, view.redDoneBase(pl)+uint64(sl.cur-sl.s))
					progressed = true
					reducedIter += step
				}
			}
		}

		// Role: broadcast pull from parent + forwarding (non-root leaders).
		if bcast && !isRoot && bcCopied < n {
			done = false
			gs, _ := st.groupOf(pl, p.Rank)
			if !bcAttached {
				if gs.expSeq.Read(p.S, p.Core) >= view.opSeq {
					bcSrc = c.caches[p.Rank].Attach(p.S, gs.exposed)
					bcSoff = gs.exposedOff
					bcAttached = true
					progressed = true
				}
			}
			if bcAttached {
				base := view.cumBytes[pl]
				avail := int(gs.readyValue(p) - base)
				if avail > n {
					avail = n
				}
				if avail > bcCopied {
					chunk := c.chunkAt(pl)
					for bcCopied < avail {
						take := min(chunk, avail-bcCopied)
						p.Copy(rbuf, bcCopied, bcSrc, bcSoff+bcCopied, take)
						bcCopied += take
						copiedIter += take
						proto.Announce(m, plan, view.cumBytes, uint64(bcCopied))
					}
					progressed = true
					if bcCopied >= n {
						c.caches[p.Rank].Release(p.S, gs.exposed)
						c.recordPull(gs.leader, p.Rank, n)
					}
				}
			}
		}
		if bcast && isRoot && bcCopied < n {
			// The root's rbuf is the accumulator itself; completion follows
			// the top monitor.
			bcCopied = monitors[len(monitors)-1].published
			if bcCopied < n {
				done = false
			}
		}

		if pc != nil {
			switch {
			case reducedIter > 0:
				pc.Mark(pl, obs.PhaseReduceSlice, int64(reducedIter))
			case copiedIter > 0:
				pc.Mark(pl, obs.PhaseChunkCopy, int64(copiedIter))
			default:
				pc.Mark(-1, obs.PhaseFlagWait, 0)
			}
		}
		if done {
			break
		}
		if !progressed {
			p.S.Sleep(poll)
			pc.Mark(-1, obs.PhaseFlagWait, 0)
		}
	}
}

// readyValue reads the group's availability counter under any flag scheme
// without blocking (leader progress loop use).
func (gs *groupState) readyValue(p *env.Proc) uint64 {
	if gs.ready != nil {
		return gs.ready.Read(p.S, p.Core)
	}
	return gs.memberReady[p.Rank].Read(p.S, p.Core)
}

// cicoAllreduce is the small-message path: contributions staged in the
// per-rank CICO buffers, one reducer per group, CICO broadcast back.
func (c *Comm) cicoAllreduce(p *env.Proc, st *commState, view *rankView, sbuf, acc, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, bcast bool, root int, pc *obs.OpClock) {
	plan := &st.plans[p.Rank]
	pl := plan.PullLevel()
	slot := int(view.opSeq) % 2 * (c.Cfg.CICOBytes / 2)
	_ = acc // CICO accumulates in the leaders' shared buffers

	// Copy-in: stage the send buffer; that is this rank's leaf contribution.
	p.Copy(c.cico[p.Rank], slot, sbuf, 0, n)
	gs0, _ := st.groupOf(0, p.Rank)
	gs0.redReady[p.Rank].Set(p.S, p.Core, view.redCum[0]+uint64(n))
	pc.Mark(0, obs.PhaseChunkCopy, int64(n))

	// Bottom-up: monitor led groups (wait for every active reducer's
	// slice), then publish upward; do own reduction duty at the pull level.
	es := dt.Size()
	for _, lr := range plan.Lead {
		gs, l := lr.G, lr.Level
		part := c.reducePartition(gs, n, es, c.Cfg.CICOMinReduce)
		var doneFlags []*shm.Flag
		var doneTargets []uint64
		for _, m := range gs.g.Members {
			sl, ok := part[m]
			if !ok {
				continue
			}
			if sz := uint64(sl[1] - sl[0]); sz > 0 {
				doneFlags = append(doneFlags, gs.redDone[m])
				doneTargets = append(doneTargets, view.redDoneBaseOf(l, m)+sz)
			}
		}
		shm.WaitAllTargets(p.S, p.Core, doneFlags, doneTargets)
		pc.Mark(l, obs.PhaseFlagWait, 0)
		// This group's result now sits in this leader's CICO slot; it is
		// the leader's contribution one level up.
		if l+1 < st.h.NLevels() {
			up, _ := st.groupOf(l+1, p.Rank)
			up.redReady[p.Rank].Set(p.S, p.Core, view.redCum[l+1]+uint64(n))
		}
	}

	if pl >= 0 {
		gs := plan.Pull.G
		part := c.reducePartition(gs, n, es, c.Cfg.CICOMinReduce)
		if sl, ok := part[p.Rank]; ok && sl[1] > sl[0] {
			s0, e0 := sl[0], sl[1]
			early := c.chaos.EarlyReady
			if early {
				// Mutation: announce the slice as reduced before folding it.
				gs.redDone[p.Rank].Set(p.S, p.Core, view.redDoneBase(pl)+uint64(e0-s0))
			}
			// Wait for every participant's contribution, fold the slice
			// into the leader's CICO slot (in place: it already holds the
			// leader's contribution).
			var readyFlags []*shm.Flag
			for _, m := range gs.g.Members {
				readyFlags = append(readyFlags, gs.redReady[m])
			}
			shm.WaitAllGE(p.S, p.Core, readyFlags, view.redCum[pl]+uint64(n))
			pc.Mark(pl, obs.PhaseFlagWait, 0)
			dst := c.cico[gs.leader]
			for _, m := range gs.g.Members {
				if m == gs.leader {
					continue
				}
				src := c.cico[m]
				p.ChargeRead(src, slot+s0, e0-s0)
				mpi.ReduceBytes(op, dt, dst.Data[slot+s0:slot+e0], src.Data[slot+s0:slot+e0])
				p.ChargeCompute(e0 - s0)
			}
			p.Dirty(dst)
			if !early {
				gs.redDone[p.Rank].Set(p.S, p.Core, view.redDoneBase(pl)+uint64(e0-s0))
			}
			pc.Mark(pl, obs.PhaseReduceSlice, int64(e0-s0))
		}
	}

	if !bcast {
		// Reduce: the root drains its CICO accumulator into rbuf.
		if p.Rank == root {
			p.Copy(rbuf, 0, c.cico[p.Rank], slot, n)
			pc.Mark(-1, obs.PhaseChunkCopy, int64(n))
		}
		return
	}

	// Broadcast the final result back down through the CICO buffers.
	if p.Rank == root {
		p.Copy(rbuf, 0, c.cico[p.Rank], slot, n)
		proto.Announce(c.mem(p, pc), plan, view.cumBytes, uint64(n))
		pc.Mark(-1, obs.PhaseChunkCopy, int64(n))
	} else {
		gs := plan.Pull.G
		c.mem(p, pc).WaitGE(&plan.Pull, proto.Ready, view.cumBytes[pl]+uint64(n))
		pc.MarkFrom(pl, obs.PhaseFlagWait, 0, gs.leader)
		src := c.cico[gs.leader]
		p.Copy(rbuf, 0, src, slot, n)
		if len(plan.Lead) > 0 {
			p.Copy(c.cico[p.Rank], slot, src, slot, n)
			proto.Announce(c.mem(p, pc), plan, view.cumBytes, uint64(n))
		}
		pc.Mark(pl, obs.PhaseChunkCopy, int64(n))
		c.recordPull(gs.leader, p.Rank, n)
	}
}

// Barrier synchronizes all ranks hierarchically: arrival propagates up via
// the ack flags, release propagates down via the ready counters.
func (c *Comm) Barrier(p *env.Proc) {
	if !c.queued(p, proto.KindBarrier, nil, nil, 0, 0, 0, 0, 0) {
		c.barrier(p)
	}
}

func (c *Comm) barrier(p *env.Proc) {
	st := c.stateFor(0)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.clocks.Start(p.Rank, obs.OpBarrier, view.opSeq, 0, st.h.NLevels())
	proto.Barrier(c.mem(p, pc), &st.plans[p.Rank], view.opSeq, view.cumBytes)
	pc.Finish()
}
