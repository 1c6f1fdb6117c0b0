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

// Non-blocking collectives over the simulated backend: the simulator's
// half of package proto's request lane (proto.Lane, proto.Drain). An
// I-call appends a request to the rank's queue and, when the lane is idle,
// spawns a helper process on the rank's core that drains it and exits when
// it runs dry. Progress is genuinely asynchronous in virtual time, and the
// engine's schedule exploration interleaves the helpers of different ranks
// and communicators. Test polls with a virtual-time backoff; Wait
// suspends the proc until the helper wakes it.

// testPoll is the virtual-time backoff Test takes when the request is not
// yet done: a pure re-check would never return control to the engine, so
// Test always advances the clock enough for helpers to run.
const testPoll = 100 * sim.Nanosecond

// Request is a handle on one outstanding non-blocking collective. It is
// owned by the issuing rank: only that rank may Test/Wait it, and a
// successful Test or a Wait consumes the handle (MPI_REQUEST_NULL
// discipline — the object returns to the lane's freelist and must not be
// touched again). Done is the non-consuming peek for harness code that
// checks completion ordering across several live requests.
type Request struct {
	proto.Req
	c    *Comm
	rank int

	buf  *mem.Buffer // primary buffer (bcast buf / sbuf / in)
	buf2 *mem.Buffer // secondary buffer (rbuf / out)
	off  int
	dt   mpi.Datatype
	op   mpi.Op

	waiters []sim.Waiter // procs suspended in Wait
}

// nbRank is one rank's lane (the simulation is cooperative: no races).
type nbRank struct {
	proto.Lane[*Request]
	queue  []*Request
	head   int
	active bool                                       // a helper proc is draining the queue
	subs   [proto.MaxFuseBatch]proto.Sub[*mem.Buffer] // the fused batch's buffers
}

// newReq fills a recycled (or new) request with one call's arguments.
func (c *Comm) newReq(rank int, kind proto.Kind, buf, buf2 *mem.Buffer, off, n, root int, dt mpi.Datatype, op mpi.Op) *Request {
	r, ok := c.nb[rank].Get()
	if !ok {
		r = &Request{c: c, rank: rank}
	}
	r.Init(kind, root, n)
	r.buf, r.buf2, r.off, r.dt, r.op = buf, buf2, off, dt, op
	return r
}

// issue queues r on the caller's lane and ensures a helper drains it.
// Engine.Go schedules a new helper after the events already pending now,
// so a burst of back-to-back issues queues whole before its first step
// and the fusion window sees the burst. A diverted blocking call
// (nonblocking false) never fuses.
func (c *Comm) issue(p *env.Proc, r *Request, nonblocking bool) *Request {
	lane := &c.nb[p.Rank]
	lane.Issue(r, nonblocking, c.clocks)
	lane.queue = append(lane.queue, r)
	if !lane.active {
		lane.active = true
		rank := p.Rank
		c.W.Sys.Eng.Go(fmt.Sprintf("xhc.nb.r%d", rank), func(sp *sim.Proc) {
			proto.Drain(&lane.Lane, helper{c, &env.Proc{S: sp, W: c.W, Rank: rank, Core: c.W.Core(rank)}})
		})
	}
	return r
}

// queued runs a blocking call through the rank's request queue, behind its
// outstanding requests, and reports whether it had to.
func (c *Comm) queued(p *env.Proc, kind proto.Kind, buf, buf2 *mem.Buffer, off, n, root int, dt mpi.Datatype, op mpi.Op) bool {
	if !c.nb[p.Rank].Gated() {
		return false
	}
	c.issue(p, c.newReq(p.Rank, kind, buf, buf2, off, n, root, dt, op), false).Wait(p)
	return true
}

// Ibcast starts a non-blocking broadcast of buf[off:off+n] from root.
func (c *Comm) Ibcast(p *env.Proc, buf *mem.Buffer, off, n, root int) *Request {
	sizeCheck(buf, off, n)
	return c.issue(p, c.newReq(p.Rank, proto.KindBcast, buf, nil, off, n, root, 0, 0), true)
}

// Iallreduce starts a non-blocking allreduce of sbuf into rbuf.
func (c *Comm) Iallreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) *Request {
	c.reduceCheck(p, sbuf, rbuf, n, true, 0)
	return c.issue(p, c.newReq(p.Rank, proto.KindAllreduce, sbuf, rbuf, 0, n, 0, dt, op), true)
}

// Ireduce starts a non-blocking reduce of sbuf into root's rbuf.
func (c *Comm) Ireduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, root int) *Request {
	c.reduceCheck(p, sbuf, rbuf, n, false, root)
	return c.issue(p, c.newReq(p.Rank, proto.KindReduce, sbuf, rbuf, 0, n, root, dt, op), true)
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier(p *env.Proc) *Request {
	return c.issue(p, c.newReq(p.Rank, proto.KindBarrier, nil, nil, 0, 0, 0, 0, 0), true)
}

// Iallgather starts a non-blocking allgather of blockLen-byte blocks.
func (c *Comm) Iallgather(p *env.Proc, in, out *mem.Buffer, blockLen int) *Request {
	sizeCheck(in, 0, blockLen)
	sizeCheck(out, 0, blockLen*c.W.N)
	return c.issue(p, c.newReq(p.Rank, proto.KindAllgather, in, out, 0, blockLen, 0, 0, 0), true)
}

// Iscatter starts a non-blocking scatter of blockLen-byte blocks from
// root's buf into each rank's out.
func (c *Comm) Iscatter(p *env.Proc, buf, out *mem.Buffer, blockLen, root int) *Request {
	sizeCheck(out, 0, blockLen)
	return c.issue(p, c.newReq(p.Rank, proto.KindScatter, buf, out, 0, blockLen, root, 0, 0), true)
}

// InFlight returns the number of currently outstanding requests on the
// communicator (all ranks).
func (c *Comm) InFlight() int64 { return c.inflight.Load() }

// Test polls the request once, advancing virtual time just enough for
// helper processes to make progress. On true the request is consumed.
func (r *Request) Test(p *env.Proc) bool {
	if !r.Done() {
		p.S.Sleep(testPoll)
	}
	if !r.Done() {
		return false
	}
	r.release()
	return true
}

// Wait blocks the calling proc until the request completes, then consumes
// it. The loop guards against stale wakeups addressed to a previous
// suspension of the same proc.
func (r *Request) Wait(p *env.Proc) {
	for !r.Done() {
		r.waiters = append(r.waiters, p.S.Waiter())
		p.S.Suspend("xhc: request wait")
	}
	r.release()
}

// release returns a consumed request to its lane's freelist.
func (r *Request) release() {
	r.buf, r.buf2 = nil, nil
	r.waiters = r.waiters[:0]
	r.c.nb[r.rank].Put(r)
}

// Waitall waits for every non-nil request, in order.
func Waitall(p *env.Proc, rs ...*Request) {
	for _, r := range rs {
		if r != nil {
			r.Wait(p)
		}
	}
}

// helper is the proc draining one rank's lane (proto.Drain): the
// simulator's proto.Backend.
type helper struct {
	c *Comm
	p *env.Proc
}

// Next pops the lane's queue; when the drain ends, the helper exits and
// the next issue spawns a new one.
func (h helper) Next(wait bool) (*Request, bool) {
	lane := &h.c.nb[h.p.Rank]
	if lane.head == len(lane.queue) {
		if wait {
			lane.queue = lane.queue[:0]
			lane.head = 0
			lane.active = false
		}
		return nil, false
	}
	r := lane.queue[lane.head]
	lane.head++
	return r, true
}

// Run runs a request's blocking body on the helper proc.
func (h helper) Run(r *Request) {
	c, p := h.c, h.p
	switch r.Kind {
	case proto.KindBcast:
		c.bcast(p, r.buf, r.off, r.N, r.Root)
	case proto.KindAllreduce:
		c.allreduce(p, r.buf, r.buf2, r.N, r.dt, r.op, true, 0)
	case proto.KindReduce:
		c.allreduce(p, r.buf, r.buf2, r.N, r.dt, r.op, false, r.Root)
	case proto.KindBarrier:
		c.barrier(p)
	case proto.KindAllgather:
		c.allgather(p, r.buf, r.buf2, r.N)
	case proto.KindScatter:
		c.scatter(p, r.buf, r.buf2, r.N, r.Root)
	case proto.KindGather:
		c.gather(p, r.buf, r.buf2, r.N, r.Root)
	}
}

// RunFused runs a batch of same-shape small broadcasts as one fused
// hierarchy traversal (proto.Fused), with this backend's op accounting.
func (h helper) RunFused(batch []*Request) {
	c, p := h.c, h.p
	k, n := len(batch), batch[0].N
	st := c.stateFor(batch[0].Root)
	view := st.views[p.Rank]
	first := view.opSeq + 1
	view.opSeq += uint64(k)
	if p.Rank == 0 {
		c.Ops += int64(k)
	}
	pc := c.clocks.Start(p.Rank, obs.OpBcast, view.opSeq, int64(k)*int64(n), st.h.NLevels())
	subs := c.nb[p.Rank].subs[:k]
	for i, r := range batch {
		subs[i] = proto.Sub[*mem.Buffer]{Buf: r.buf, Off: r.off}
	}
	proto.Fused(c.mem(p, pc), &st.plans[p.Rank], first, view.cumBytes, subs, n)
	pc.Finish()
	clear(subs)
}

// Wake resumes the procs suspended in r's Wait.
func (h helper) Wake(r *Request) {
	eng := h.c.W.Sys.Eng
	eng.WakeAll(r.waiters, eng.Now())
	r.waiters = r.waiters[:0]
}

func (h helper) Obs() proto.Recorder { return h.c.clocks }
