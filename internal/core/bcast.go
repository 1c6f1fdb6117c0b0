package core

import (
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/shm"
	"xhc/internal/xpmem"
)

// Bcast broadcasts buf[off:off+n] from root to all ranks, using the
// hierarchical, pipelined, pull-based algorithm of the paper's Section
// IV-A: leaders expose their buffer, a leader-owned shared counter
// announces available bytes, members attach and pull chunks as they become
// available, and a hierarchical acknowledgment step closes the operation.
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
	switch {
	case n == 0:
		c.ackPhase(p, st, view, pc)
	case n <= c.Cfg.CICOThreshold:
		c.cicoBcast(p, st, view, buf, off, n, root, pc)
	default:
		c.xpmemBcast(p, st, view, buf, off, n, root, pc)
	}
	pc.finish()
}

// xpmemBcast is the single-copy path.
func (c *Comm) xpmemBcast(p *env.Proc, st *commState, view *rankView, buf *mem.Buffer, off, n, root int, pc *phaseClock) {
	lead := st.leadLevels(p.Rank)
	pl := st.pullLevel(p.Rank)

	// Exposure: leaders (and the root) publish their user buffer so
	// children can attach to it.
	for _, l := range lead {
		gs, _ := st.groupOf(l, p.Rank)
		gs.exposed = xpmem.Expose(buf)
		gs.exposedOff = off
		gs.expSeq.Set(p.S, p.Core, view.opSeq)
	}
	pc.mark(-1, obs.PhaseExpose, 0)

	if p.Rank == root {
		// The root's data is fully available from the start.
		for _, l := range lead {
			gs, _ := st.groupOf(l, p.Rank)
			c.setReady(p, gs, view.cumBytes[l]+uint64(n))
		}
		pc.mark(-1, obs.PhaseChunkCopy, int64(n))
	} else {
		gs, _ := st.groupOf(pl, p.Rank)
		// Wait for this op's exposure, then attach (registration cached).
		gs.expSeq.WaitGE(p.S, p.Core, view.opSeq)
		pc.markFrom(pl, obs.PhaseFlagWait, 0, c.W.Core(gs.leader))
		src := c.caches[p.Rank].Attach(p.S, gs.exposed)
		soff := gs.exposedOff
		pc.mark(pl, obs.PhaseExpose, 0)
		base := view.cumBytes[pl]
		chunk := c.chunkAt(pl)
		early := c.chaos().EarlyReady
		copied := 0
		for copied < n {
			want := min(chunk, n-copied)
			avail := int(c.waitReady(p, gs, base+uint64(copied+want)) - base)
			if avail > n {
				avail = n
			}
			pc.markFrom(pl, obs.PhaseFlagWait, 0, c.W.Core(gs.leader))
			before := copied
			// Copy chunk by chunk (not everything available at once): the
			// chunk granule is what lets children overlap with this rank's
			// own progress (Fig. 5).
			for copied < avail {
				take := min(chunk, avail-copied)
				if early {
					// Mutation: announce the chunk before copying it.
					for _, l := range lead {
						lgs, _ := st.groupOf(l, p.Rank)
						c.setReady(p, lgs, view.cumBytes[l]+uint64(copied+take))
					}
				}
				p.Copy(buf, off+copied, src, soff+copied, take)
				copied += take
				if !early {
					for _, l := range lead {
						lgs, _ := st.groupOf(l, p.Rank)
						c.setReady(p, lgs, view.cumBytes[l]+uint64(copied))
					}
				}
			}
			pc.mark(pl, obs.PhaseChunkCopy, int64(copied-before))
		}
		c.caches[p.Rank].Release(p.S, gs.exposed)
		pc.mark(pl, obs.PhaseExpose, 0)
		c.recordPull(gs.leader, p.Rank, n)
	}

	for l := range view.cumBytes {
		view.cumBytes[l] += uint64(n)
	}
	c.ackPhase(p, st, view, pc)
}

// cicoBcast is the small-message copy-in-copy-out path: the same
// algorithm, with the leaders' CICO buffers in place of attached user
// buffers (paper Section IV-C).
func (c *Comm) cicoBcast(p *env.Proc, st *commState, view *rankView, buf *mem.Buffer, off, n, root int, pc *phaseClock) {
	lead := st.leadLevels(p.Rank)
	pl := st.pullLevel(p.Rank)
	slot := int(view.opSeq) % 2 * (c.Cfg.CICOBytes / 2) // double-buffered slots
	early := c.chaos().EarlyReady
	announce := func() {
		for _, l := range lead {
			lgs, _ := st.groupOf(l, p.Rank)
			c.setReady(p, lgs, view.cumBytes[l]+uint64(n))
		}
	}

	if p.Rank == root {
		// Copy-in, then announce to all led groups (the mutation announces
		// before the copy-in lands).
		if early {
			announce()
		}
		p.Copy(c.cico[p.Rank], slot, buf, off, n)
		if !early {
			announce()
		}
		pc.mark(-1, obs.PhaseChunkCopy, int64(n))
	} else {
		gs, _ := st.groupOf(pl, p.Rank)
		base := view.cumBytes[pl]
		c.waitReady(p, gs, base+uint64(n))
		pc.mark(pl, obs.PhaseFlagWait, 0)
		src := c.cico[gs.leader]
		if early && len(lead) > 0 {
			// Mutation: a forwarding leader announces its staged copy
			// before performing it; children pull the previous slot
			// contents.
			announce()
		}
		// Copy-out into the user buffer.
		p.Copy(buf, off, src, slot, n)
		// Leaders also stage into their own CICO buffer for their children.
		if len(lead) > 0 {
			p.Copy(c.cico[p.Rank], slot, src, slot, n)
			if !early {
				announce()
			}
		}
		pc.mark(pl, obs.PhaseChunkCopy, int64(n))
		c.recordPull(gs.leader, p.Rank, n)
	}

	for l := range view.cumBytes {
		view.cumBytes[l] += uint64(n)
	}
	c.ackPhase(p, st, view, pc)
}

// ackPhase implements the hierarchical acknowledgment: each rank marks the
// op complete at the group it pulls in; leaders wait for their members
// before returning, guaranteeing their buffers and control structures are
// no longer in use (paper Section IV-A, finalization).
func (c *Comm) ackPhase(p *env.Proc, st *commState, view *rankView, pc *phaseClock) {
	// Leaders collect their led groups bottom-up BEFORE publishing their own
	// ack: an ack therefore certifies the rank's whole subtree is done. That
	// subtree ordering is what lets a rank whose buffer is attached from
	// afar (scatter's root exposure crosses group boundaries) treat its own
	// return as proof no reader is left anywhere below.
	for _, l := range st.leadLevels(p.Rank) {
		gs, _ := st.groupOf(l, p.Rank)
		var flags []*shm.Flag
		for _, m := range gs.g.Members {
			if m != p.Rank {
				flags = append(flags, gs.acks[m])
			}
		}
		shm.WaitAllGE(p.S, p.Core, flags, view.opSeq)
	}
	if pl := st.pullLevel(p.Rank); pl >= 0 {
		gs, _ := st.groupOf(pl, p.Rank)
		ch := c.chaos()
		switch {
		case ch.SkipAck && len(st.leadLevels(p.Rank)) == 0:
			// Mutation: a pure member forgets its ack; its leader's
			// WaitAllGE above never completes.
		case ch.AckRegression && view.opSeq >= 2:
			// Mutation: republish a stale counter value; shm rejects the
			// non-monotone store.
			gs.acks[p.Rank].Set(p.S, p.Core, view.opSeq-2)
		default:
			gs.acks[p.Rank].Set(p.S, p.Core, view.opSeq)
		}
	}
	pc.mark(-1, obs.PhaseAck, 0)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
