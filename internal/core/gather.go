package core

import (
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/shm"
	"xhc/internal/xpmem"
)

// The paper's conclusions list extending XHC to further primitives as
// ongoing work; this file provides the natural next set — Scatter, Gather
// and Allgather — using the same machinery: exposure of the root's buffer,
// single-copy pulls/pushes through XPMEM with the registration cache, a
// CICO path for small per-rank blocks, and single-writer flags.

// Scatter distributes blockLen bytes to each rank from root's buf (which
// holds N consecutive blocks in rank order); each rank receives its block
// into out. A direct single-copy design: every rank attaches to the root's
// buffer and pulls exactly its own block — the hierarchy adds nothing for
// scatter's disjoint traffic, but the pull is still distance-aware via the
// memory model.
func (c *Comm) Scatter(p *env.Proc, buf *mem.Buffer, out *mem.Buffer, blockLen, root int) {
	if c.nbGated(p.Rank) {
		c.issueBlocking(p, c.buildReq(p.Rank, reqScatter, buf, out, 0, blockLen, root, 0, 0))
		return
	}
	c.scatter(p, buf, out, blockLen, root)
}

func (c *Comm) scatter(p *env.Proc, buf *mem.Buffer, out *mem.Buffer, blockLen, root int) {
	st := c.stateFor(root)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.newPhaseClock(p, obs.OpScatter, view.opSeq, int64(blockLen), st.h.NLevels())
	if blockLen == 0 {
		c.ack(p, st, view, pc)
		pc.finish()
		return
	}
	if blockLen <= c.Cfg.CICOThreshold && blockLen*c.W.N <= c.Cfg.CICOBytes/2 {
		c.cicoScatter(p, st, view, buf, out, blockLen, root, pc)
		c.ack(p, st, view, pc)
		pc.finish()
		return
	}
	gs := st.groups[st.h.NLevels()-1][0] // top group carries the exposure
	if p.Rank == root {
		sizeCheck(buf, 0, blockLen*c.W.N)
		gs.exposed = xpmem.Expose(buf)
		gs.exposedOff = 0
		gs.expSeq.Set(p.S, p.Core, view.opSeq)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(out, 0, buf, blockLen*root, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
	} else {
		sizeCheck(out, 0, blockLen)
		gs.expSeq.WaitGE(p.S, p.Core, view.opSeq)
		pc.markFrom(-1, obs.PhaseFlagWait, 0, c.W.Core(gs.leader))
		src := c.caches[p.Rank].Attach(p.S, gs.exposed)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(out, 0, src, gs.exposedOff+blockLen*p.Rank, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
		c.caches[p.Rank].Release(p.S, gs.exposed)
		pc.mark(-1, obs.PhaseExpose, 0)
		c.recordPull(root, p.Rank, blockLen)
	}
	c.ack(p, st, view, pc)
	pc.finish()
}

// cicoScatter is the small-block copy-in-copy-out path: the root stages all
// N blocks into its CICO buffer in one shot (they fit below the threshold by
// construction), announces via the top group's exposure sequence, and every
// rank copies out exactly its own block — no attach/expose round-trips for
// latency-bound sizes (paper Section IV-C).
func (c *Comm) cicoScatter(p *env.Proc, st *commState, view *rankView, buf *mem.Buffer, out *mem.Buffer, blockLen, root int, pc *phaseClock) {
	gs := st.groups[st.h.NLevels()-1][0]
	slot := int(view.opSeq) % 2 * (c.Cfg.CICOBytes / 2) // double-buffered slots
	if p.Rank == root {
		sizeCheck(buf, 0, blockLen*c.W.N)
		if c.chaos().EarlyReady {
			// Mutation: announce the staged blocks before the copy-in lands.
			gs.expSeq.Set(p.S, p.Core, view.opSeq)
		}
		p.Copy(c.cico[root], slot, buf, 0, blockLen*c.W.N)
		if !c.chaos().EarlyReady {
			gs.expSeq.Set(p.S, p.Core, view.opSeq)
		}
		p.Copy(out, 0, buf, blockLen*root, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen*c.W.N))
	} else {
		sizeCheck(out, 0, blockLen)
		gs.expSeq.WaitGE(p.S, p.Core, view.opSeq)
		pc.markFrom(-1, obs.PhaseFlagWait, 0, c.W.Core(root))
		p.Copy(out, 0, c.cico[root], slot+blockLen*p.Rank, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
		c.recordPull(root, p.Rank, blockLen)
	}
}

// Gather collects blockLen bytes from each rank's in buffer into root's
// buf (N consecutive blocks in rank order). Push-based single-copy: the
// root exposes its receive buffer, every rank attaches and writes its own
// disjoint block directly — the inverse of the broadcast pull.
func (c *Comm) Gather(p *env.Proc, in *mem.Buffer, buf *mem.Buffer, blockLen, root int) {
	if c.nbGated(p.Rank) {
		c.issueBlocking(p, c.buildReq(p.Rank, reqGather, in, buf, 0, blockLen, root, 0, 0))
		return
	}
	c.gather(p, in, buf, blockLen, root)
}

func (c *Comm) gather(p *env.Proc, in *mem.Buffer, buf *mem.Buffer, blockLen, root int) {
	st := c.stateFor(root)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.newPhaseClock(p, obs.OpGather, view.opSeq, int64(blockLen), st.h.NLevels())
	if blockLen == 0 {
		c.ack(p, st, view, pc)
		pc.finish()
		return
	}
	gs := st.groups[st.h.NLevels()-1][0]
	if p.Rank == root {
		sizeCheck(buf, 0, blockLen*c.W.N)
		gs.accExposed = xpmem.Expose(buf)
		gs.accExposedOff = 0
		gs.accExpSeq.Set(p.S, p.Core, view.opSeq)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(buf, blockLen*root, in, 0, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
	} else {
		sizeCheck(in, 0, blockLen)
		gs.accExpSeq.WaitGE(p.S, p.Core, view.opSeq)
		pc.markFrom(-1, obs.PhaseFlagWait, 0, c.W.Core(gs.leader))
		dst := c.caches[p.Rank].Attach(p.S, gs.accExposed)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(dst, gs.accExposedOff+blockLen*p.Rank, in, 0, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
		c.caches[p.Rank].Release(p.S, gs.accExposed)
		pc.mark(-1, obs.PhaseExpose, 0)
		c.recordPull(p.Rank, root, blockLen)
	}
	// The ack phase doubles as the completion notification: the root's
	// return is gated on every rank having pushed its block.
	c.ack(p, st, view, pc)
	pc.finish()
}

// Allgather concatenates every rank's blockLen-byte in block into each
// rank's out buffer (N blocks in rank order), hierarchically: blocks are
// gathered into the leaders' buffers level by level, then the assembled
// result is broadcast back down with the pipelined broadcast.
func (c *Comm) Allgather(p *env.Proc, in *mem.Buffer, out *mem.Buffer, blockLen int) {
	if c.nbGated(p.Rank) {
		c.issueBlocking(p, c.buildReq(p.Rank, reqAllgather, in, out, 0, blockLen, 0, 0, 0))
		return
	}
	c.allgather(p, in, out, blockLen)
}

func (c *Comm) allgather(p *env.Proc, in *mem.Buffer, out *mem.Buffer, blockLen int) {
	if blockLen == 0 {
		st := c.stateFor(0)
		view := st.views[p.Rank]
		view.opSeq++
		pc := c.newPhaseClock(p, obs.OpAllgather, view.opSeq, 0, st.h.NLevels())
		c.ack(p, st, view, pc)
		pc.finish()
		return
	}
	n := blockLen * c.W.N
	sizeCheck(in, 0, blockLen)
	sizeCheck(out, 0, n)
	st := c.stateFor(0)
	view := st.views[p.Rank]
	view.opSeq++
	if p.Rank == 0 {
		c.Ops++
	}
	pc := c.newPhaseClock(p, obs.OpAllgather, view.opSeq, int64(blockLen), st.h.NLevels())

	if blockLen <= c.Cfg.CICOThreshold && blockLen <= c.Cfg.CICOBytes/2 {
		c.cicoAllgather(p, st, view, in, out, blockLen, pc)
		c.ack(p, st, view, pc)
		pc.finish()
		return
	}

	// Phase 1: every rank pushes its block into the internal root's out
	// buffer (rank 0), which assembles the full vector. Leaders are not
	// needed for disjoint pushes; the memory model charges the distances.
	gs := st.groups[st.h.NLevels()-1][0]
	if p.Rank == 0 {
		gs.accExposed = xpmem.Expose(out)
		gs.accExposedOff = 0
		gs.accExpSeq.Set(p.S, p.Core, view.opSeq)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(out, 0, in, 0, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
		// Wait for all pushes (push counters reuse the redReady flags of
		// the top group's members plus a shared arrival account below).
		var flags []*shm.Flag
		for r := 1; r < c.W.N; r++ {
			flags = append(flags, c.agDone(st, r))
		}
		shm.WaitAllGE(p.S, p.Core, flags, view.opSeq)
		pc.mark(-1, obs.PhaseFlagWait, 0)
	} else {
		gs.accExpSeq.WaitGE(p.S, p.Core, view.opSeq)
		pc.mark(-1, obs.PhaseFlagWait, 0)
		dst := c.caches[p.Rank].Attach(p.S, gs.accExposed)
		pc.mark(-1, obs.PhaseExpose, 0)
		p.Copy(dst, gs.accExposedOff+blockLen*p.Rank, in, 0, blockLen)
		pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
		c.caches[p.Rank].Release(p.S, gs.accExposed)
		c.agDone(st, p.Rank).Set(p.S, p.Core, view.opSeq)
		pc.mark(-1, obs.PhaseExpose, 0)
	}

	// Phase 2: hierarchical pipelined broadcast of the assembled vector
	// from the internal root (rank 0 has the data in `out`).
	proto.Pipeline(c.mem(p, pc), &st.plans[p.Rank], view.opSeq, view.cumBytes, out, 0, n)
	proto.Advance(view.cumBytes, uint64(n))
	c.ack(p, st, view, pc)
	pc.finish()
}

// cicoAllgather is the small-block copy-in-copy-out path: each rank stages
// its block into its own CICO buffer and publishes its push-completion flag,
// then assembles the full vector by copying every peer's staged block out —
// all-to-all reads of disjoint staged lines, with the memory model charging
// each pull's distance (paper Section IV-C applied to allgather).
func (c *Comm) cicoAllgather(p *env.Proc, st *commState, view *rankView, in *mem.Buffer, out *mem.Buffer, blockLen int, pc *phaseClock) {
	slot := int(view.opSeq) % 2 * (c.Cfg.CICOBytes / 2) // double-buffered slots
	if c.chaos().EarlyReady {
		// Mutation: publish the push before the copy-in lands.
		c.agDone(st, p.Rank).Set(p.S, p.Core, view.opSeq)
	}
	p.Copy(c.cico[p.Rank], slot, in, 0, blockLen)
	if !c.chaos().EarlyReady {
		c.agDone(st, p.Rank).Set(p.S, p.Core, view.opSeq)
	}
	pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))
	for r := 0; r < c.W.N; r++ {
		if r == p.Rank {
			p.Copy(out, blockLen*r, in, 0, blockLen)
			continue
		}
		c.agDone(st, r).WaitGE(p.S, p.Core, view.opSeq)
		p.Copy(out, blockLen*r, c.cico[r], slot, blockLen)
		c.recordPull(r, p.Rank, blockLen)
	}
	pc.mark(-1, obs.PhaseChunkCopy, int64(blockLen*(c.W.N-1)))
	pc.mark(-1, obs.PhaseFlagWait, 0)
}

// agDone returns rank's allgather push-completion flag (lazily created at
// comm setup granularity).
func (c *Comm) agDone(st *commState, rank int) *shm.Flag {
	if c.agFlags == nil {
		c.agFlags = map[*commState][]*shm.Flag{}
	}
	fl := c.agFlags[st]
	if fl == nil {
		fl = make([]*shm.Flag, c.W.N)
		for r := 0; r < c.W.N; r++ {
			fl[r] = shm.NewFlag(c.W.Sys, c.name("ag.%d", r), c.W.Core(r))
		}
		c.agFlags[st] = fl
	}
	return fl[rank]
}
