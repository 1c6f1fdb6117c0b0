package core

import (
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/shm"
	"xhc/internal/xpmem"
)

// Bcast broadcasts buf[off:off+n] from root to all ranks, using the
// hierarchical, pipelined, pull-based algorithm of the paper's Section
// IV-A (package proto): leaders expose their buffer, a leader-owned shared
// counter announces available bytes, members attach and pull chunks as
// they become available, and a hierarchical acknowledgment step closes the
// operation. Messages up to CICOThreshold take the copy-in-copy-out path.
// While non-blocking requests are outstanding on this rank, the call is
// diverted through the request queue to run in issue order behind them.
func (c *Comm) Bcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	if !c.queued(p, proto.KindBcast, buf, nil, off, n, root, 0, 0) {
		c.bcast(p, buf, off, n, root)
	}
}

func (c *Comm) bcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	sizeCheck(buf, off, n)
	st := c.stateFor(root)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.clocks.Start(p.Rank, obs.OpBcast, view.opSeq, int64(n), st.h.NLevels())
	proto.Bcast(c.mem(p, pc), &st.plans[p.Rank], view.opSeq, view.cumBytes, buf, off, n)
	pc.Finish()
}

// ack runs the shared hierarchical acknowledgment (proto.AckPhase) that
// closes every collective.
func (c *Comm) ack(p *env.Proc, st *commState, view *rankView, pc *obs.OpClock) {
	proto.AckPhase(c.mem(p, pc), &st.plans[p.Rank], view.opSeq)
}

// rankMem is one rank's handle on the simulated node for the shared
// protocol: the proc and op clock of the op the rank is running and, in a
// reduction, its datatype, op and size, the buffers it attached for Fold,
// and the gather scratch of WaitSlots.
type rankMem struct {
	c  *Comm
	p  *env.Proc
	pc *obs.OpClock

	dt    mpi.Datatype
	op    mpi.Op
	n     int
	acc   *mem.Buffer
	srcs  []*mem.Buffer // per member slot
	flags []*shm.Flag
	wants []uint64
}

// mem points rank p's protocol handle at the op it is about to run.
func (c *Comm) mem(p *env.Proc, pc *obs.OpClock) *rankMem {
	m := &c.mems[p.Rank]
	m.p, m.pc = p, pc
	return m
}

// flag is the shm flag behind f for member slot s, as rank reads it (the
// Ready counters follow the flag scheme).
func (gs *groupState) flag(f proto.Flag, s, rank int) *shm.Flag {
	switch f {
	case proto.Exp:
		return gs.expSeq
	case proto.Ready:
		if gs.ready != nil {
			return gs.ready
		}
		return gs.memberReady[rank]
	case proto.Ack:
		return gs.acks[gs.g.Members[s]]
	case proto.AccExp:
		return gs.accExpSeq
	case proto.RedExp:
		return gs.redExpSeq[s]
	case proto.RedReady:
		return gs.redReady[s]
	}
	return gs.redDone[s]
}

// Set publishes v; a Ready store follows the configured flag scheme (one
// leader-owned counter, or one per member in member order, which keeps the
// event sequence deterministic).
func (m *rankMem) Set(r *proto.Role[*groupState], f proto.Flag, v uint64) {
	gs, p := r.G, m.p
	if f != proto.Ready || gs.ready != nil {
		gs.flag(f, r.Slot, p.Rank).Set(p.S, p.Core, v)
		return
	}
	for _, mb := range gs.g.Members {
		if fl, ok := gs.memberReady[mb]; ok {
			fl.Set(p.S, p.Core, v)
		}
	}
}

func (m *rankMem) WaitGE(r *proto.Role[*groupState], f proto.Flag, v uint64) uint64 {
	return r.G.flag(f, r.Slot, m.p.Rank).WaitGE(m.p.S, m.p.Core, v)
}

func (m *rankMem) Load(r *proto.Role[*groupState], f proto.Flag, s int) uint64 {
	return r.G.flag(f, s, m.p.Rank).Read(m.p.S, m.p.Core)
}

func (m *rankMem) WaitSlot(r *proto.Role[*groupState], f proto.Flag, s int, v uint64) {
	r.G.flag(f, s, m.p.Rank).WaitGE(m.p.S, m.p.Core, v)
}

// WaitSlots gathers the slots' flags in one overlapped wait.
func (m *rankMem) WaitSlots(r *proto.Role[*groupState], f proto.Flag, want []uint64) {
	m.flags, m.wants = m.flags[:0], m.wants[:0]
	for s, v := range want {
		if v != 0 {
			m.flags = append(m.flags, r.G.flag(f, s, m.p.Rank))
			m.wants = append(m.wants, v)
		}
	}
	shm.WaitAllTargets(m.p.S, m.p.Core, m.flags, m.wants)
}

// Stall sleeps one poll period: core's leaders poll.
func (m *rankMem) Stall(*proto.Role[*groupState], proto.Flag, int, uint64) {
	m.p.S.Sleep(m.c.pollInterval(m.n))
}

func (m *rankMem) Contribute(r *proto.Role[*groupState], buf *mem.Buffer, acc bool) {
	if acc {
		r.G.accExposed = xpmem.Expose(buf)
		return
	}
	r.G.redExposed[r.Slot] = xpmem.Expose(buf)
}

func (m *rankMem) AttachRed(r *proto.Role[*groupState], s int) *mem.Buffer {
	gs, ca := r.G, m.c.caches[m.p.Rank]
	if s == proto.Acc {
		m.acc = ca.Attach(m.p.S, gs.accExposed)
		return m.acc
	}
	for len(m.srcs) <= s {
		m.srcs = append(m.srcs, nil)
	}
	m.srcs[s] = ca.Attach(m.p.S, gs.redExposed[s])
	return m.srcs[s]
}

// Fold streams every reducer's chunk through the rank and reduces it into
// the accumulator, after seeding the chunk with the leader's contribution
// (in place when that is the accumulator).
func (m *rankMem) Fold(r *proto.Role[*groupState], off, n int, cico bool) {
	gs, p := r.G, m.p
	acc := m.acc
	if cico {
		acc = m.c.cico[gs.leader]
	} else if lead := m.srcs[gs.lslot]; lead != acc {
		p.Copy(acc, off, lead, off, n)
	}
	for _, s := range r.Reducers {
		src := m.c.cico[gs.g.Members[s]]
		if !cico {
			src = m.srcs[s]
		}
		p.ChargeRead(src, off, n)
		mpi.ReduceBytes(m.op, m.dt, acc.Data[off:off+n], src.Data[off:off+n])
		p.ChargeCompute(n)
	}
	p.Dirty(acc)
}

func (m *rankMem) Reduction() proto.Reduction {
	cfg := &m.c.Cfg
	return proto.Reduction{MinSlice: cfg.ReduceMinChunk, CICOMinSlice: cfg.CICOMinReduce}
}

func (m *rankMem) WaitAll(r *proto.Role[*groupState], v uint64) {
	shm.WaitAllGE(m.p.S, m.p.Core, r.G.ackWait, v)
}

func (m *rankMem) Expose(r *proto.Role[*groupState], buf *mem.Buffer, off int, first uint64) {
	r.G.exposed = xpmem.Expose(buf)
	r.G.exposedOff = off
	r.G.fuseFirst = first
}

func (m *rankMem) Attach(r *proto.Role[*groupState]) (*mem.Buffer, int, uint64) {
	gs := r.G
	return m.c.caches[m.p.Rank].Attach(m.p.S, gs.exposed), gs.exposedOff, gs.fuseFirst
}

func (m *rankMem) Release(r *proto.Role[*groupState]) {
	m.c.caches[m.p.Rank].Release(m.p.S, r.G.exposed)
}

func (m *rankMem) Copy(dst *mem.Buffer, doff int, src *mem.Buffer, soff, n int) {
	m.p.Copy(dst, doff, src, soff, n)
}

func (m *rankMem) CICO(rank int) (*mem.Buffer, int) { return m.c.cico[rank], m.c.Cfg.CICOBytes / 2 }

func (m *rankMem) CICOMax() int { return m.c.Cfg.CICOThreshold }

func (m *rankMem) Chunk(level int) int { return m.c.chunkAt(level) }

// FuseStage returns (lazily allocating) the rank's fused-batch staging
// buffer. Only forwarding ranks of fused batches allocate one, so worlds
// that never fuse keep their memory footprint unchanged.
func (m *rankMem) FuseStage(int) *mem.Buffer {
	c, r := m.c, m.p.Rank
	if c.fuseBuf[r] == nil {
		c.fuseBuf[r] = c.W.NewBufferAt(c.name("fuse.%d", r), r, proto.MaxFuseBatch*c.Cfg.CICOThreshold)
	}
	return c.fuseBuf[r]
}

func (m *rankMem) Mark(level int, ph proto.Phase, bytes int64) {
	m.pc.Mark(level, obs.Phase(ph), bytes)
}

func (m *rankMem) MarkFrom(level int, ph proto.Phase, bytes int64, from int) {
	m.pc.MarkFrom(level, obs.Phase(ph), bytes, from)
}

func (m *rankMem) Pull(from, n int) { m.c.recordPull(from, m.p.Rank, n) }

func (m *rankMem) Chaos() *proto.Chaos { return &m.c.chaos }
