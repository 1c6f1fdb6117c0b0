package core

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/sim"
)

// Allreduce reduces the n bytes of sbuf (dt elements, op) across all ranks
// and leaves the result in every rank's rbuf, following the paper's
// Section IV-B (package proto): a hierarchical, index-partitioned
// reduction toward the internal root (rank 0), overlapped with a
// pipelined broadcast of the result.
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
	// The accumulator of a leader is its result buffer: rbuf for allreduce
	// (and for the root in reduce); internal scratch otherwise.
	acc := rbuf
	if n > 0 && !bcast && p.Rank != root {
		acc = c.scratchFor(p.Rank, n)
	}
	m := c.mem(p, pc)
	m.dt, m.op, m.n = dt, op, n
	proto.Allreduce(m, &st.plans[p.Rank], view.opSeq, view.cumBytes, sbuf, acc, rbuf, n, es, bcast)
	pc.Finish()
}

// scratchFor returns (growing on demand) rank's internal accumulator.
func (c *Comm) scratchFor(rank, n int) *mem.Buffer {
	if c.scratch[rank] == nil || c.scratch[rank].Len() < n {
		c.scratch[rank] = c.W.NewBufferAt(c.name("scratch.%d", rank), rank, n)
	}
	return c.scratch[rank]
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
