package core

import (
	"xhc/internal/env"
	"xhc/internal/mem"
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
	if c.nbGated(p.Rank) {
		c.issueBlocking(p, c.buildReq(p.Rank, reqBcast, buf, nil, off, n, root, 0, 0))
		return
	}
	c.bcast(p, buf, off, n, root)
}

func (c *Comm) bcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	sizeCheck(buf, off, n)
	st := c.stateFor(root)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.newPhaseClock(p, obs.OpBcast, view.opSeq, int64(n), st.h.NLevels())
	proto.Bcast(c.mem(p, pc), &st.plans[p.Rank], view.opSeq, view.cumBytes, buf, off, n)
	pc.finish()
}

// ack runs the shared hierarchical acknowledgment (proto.AckPhase) that
// closes every collective.
func (c *Comm) ack(p *env.Proc, st *commState, view *rankView, pc *phaseClock) {
	proto.AckPhase(c.mem(p, pc), &st.plans[p.Rank], view.opSeq)
}

// rankMem is one rank's handle on the simulated node for the shared
// protocol: the proc and phase clock of the op the rank is running.
type rankMem struct {
	c  *Comm
	p  *env.Proc
	pc *phaseClock
}

// mem points rank p's protocol handle at the op it is about to run.
func (c *Comm) mem(p *env.Proc, pc *phaseClock) *rankMem {
	m := &c.mems[p.Rank]
	m.p, m.pc = p, pc
	return m
}

// Set publishes v; a Ready store follows the configured flag scheme (one
// leader-owned counter, or one per member in member order, which keeps the
// event sequence deterministic).
func (m *rankMem) Set(r *proto.Role[*groupState], f proto.Flag, v uint64) {
	gs, p := r.G, m.p
	switch {
	case f == proto.Exp:
		gs.expSeq.Set(p.S, p.Core, v)
	case f == proto.Ack:
		gs.acks[p.Rank].Set(p.S, p.Core, v)
	case gs.ready != nil:
		gs.ready.Set(p.S, p.Core, v)
	default:
		for _, mb := range gs.g.Members {
			if fl, ok := gs.memberReady[mb]; ok {
				fl.Set(p.S, p.Core, v)
			}
		}
	}
}

func (m *rankMem) WaitGE(r *proto.Role[*groupState], f proto.Flag, v uint64) uint64 {
	gs, p := r.G, m.p
	switch {
	case f == proto.Exp:
		return gs.expSeq.WaitGE(p.S, p.Core, v)
	case gs.ready != nil:
		return gs.ready.WaitGE(p.S, p.Core, v)
	}
	return gs.memberReady[p.Rank].WaitGE(p.S, p.Core, v)
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
		c.fuseBuf[r] = c.W.NewBufferAt(c.name("fuse.%d", r), r, maxFuseBatch*c.fuseMax)
	}
	return c.fuseBuf[r]
}

func (m *rankMem) Mark(level int, ph proto.Phase, bytes int64) {
	m.pc.mark(level, obs.Phase(ph), bytes)
}

func (m *rankMem) MarkFrom(level int, ph proto.Phase, bytes int64, from int) {
	m.pc.markFrom(level, obs.Phase(ph), bytes, m.c.W.Core(from))
}

func (m *rankMem) Pull(from, n int) { m.c.recordPull(from, m.p.Rank, n) }

func (m *rankMem) Mutants() proto.Mutants { return m.c.mut }
