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

// Non-blocking collectives over the simulated backend. Each rank owns a
// request lane: Icollective calls append a Request to the lane's queue and
// (lazily) spawn a helper process on the same core that drains the queue in
// issue order, executing the normal blocking bodies. Progress is therefore
// genuinely asynchronous in virtual time — the issuing rank computes on
// while its helper moves bytes — and the engine's schedule exploration
// interleaves helpers of different ranks and different communicators.
//
// Same-shape small broadcasts (n <= CICOThreshold, same root) queued
// back-to-back are fused: the helper pops a whole prefix and runs one
// hierarchy traversal that carries every sub-op in a per-rank staging
// buffer (proto.Fused). Fusability is decided per request from
// rank-uniform facts only (kind, size, root, the comm's threshold), so all
// ranks agree on each op's protocol even when their batch boundaries end
// up ragged.

// maxFuseBatch caps how many same-shape small broadcasts one hierarchy
// traversal carries (and sizes the per-rank staging buffer).
const maxFuseBatch = 8

// testPoll is the virtual-time backoff Test takes when the request is not
// yet done: a pure re-check would never return control to the engine, so
// Test always advances the clock enough for helpers to run.
const testPoll = 100 * sim.Nanosecond

// reqKind dispatches a queued request to its blocking body.
type reqKind uint8

const (
	reqBcast reqKind = iota
	reqAllreduce
	reqReduce
	reqBarrier
	reqAllgather
	reqScatter
	reqGather
)

// Request is a handle on one outstanding non-blocking collective. It is
// owned by the issuing rank: only that rank may Test/Wait it, and a
// successful Test or a Wait consumes the handle (MPI_REQUEST_NULL
// discipline — the object returns to the lane's freelist and must not be
// touched again). Done is the non-consuming peek for harness code that
// checks completion ordering across several live requests.
type Request struct {
	c    *Comm
	rank int
	kind reqKind
	fuse bool

	buf  *mem.Buffer // primary buffer (bcast buf / sbuf / in)
	buf2 *mem.Buffer // secondary buffer (rbuf / out)
	off  int
	n    int // payload bytes (block bytes for the v-collectives)
	root int
	dt   mpi.Datatype
	op   mpi.Op

	issued   int64 // obs clock at issue (0 when unobserved)
	svcStart int64 // obs clock when the helper popped it (service start)
	bytes    int64

	done    bool
	waiters []reqWaiter
	next    *Request // freelist link
}

// reqWaiter is a proc suspended in Wait, with the token that arms its wake.
type reqWaiter struct {
	p     *sim.Proc
	token uint64
}

// nbRank is one rank's non-blocking lane. All fields are plain: the
// simulation is cooperative, and the issue-order gate below guarantees the
// app proc and the helper proc never race on them.
type nbRank struct {
	queue   []*Request
	head    int
	active  bool // a helper proc is draining the queue
	pending int  // issued but not completed
	seq     uint64
	free    *Request
	// subs holds the sub-op buffers of the batch being fused.
	subs [maxFuseBatch]proto.Sub[*mem.Buffer]
}

// nbGated reports whether rank currently has outstanding requests, in
// which case a blocking collective must be diverted through the queue to
// preserve issue order behind them.
func (c *Comm) nbGated(rank int) bool { return c.nb[rank].pending > 0 }

// getReq pops a recycled request (or allocates one) for rank.
func (c *Comm) getReq(rank int) *Request {
	lane := &c.nb[rank]
	r := lane.free
	if r == nil {
		return &Request{c: c, rank: rank}
	}
	lane.free = r.next
	r.next = nil
	r.done = false
	r.fuse = false
	return r
}

// release returns a consumed request to its lane's freelist.
func (c *Comm) release(r *Request) {
	lane := &c.nb[r.rank]
	r.buf, r.buf2 = nil, nil
	r.waiters = r.waiters[:0]
	r.done = false
	r.next = lane.free
	lane.free = r
}

// buildReq fills a recycled request with one call's arguments.
func (c *Comm) buildReq(rank int, kind reqKind, buf, buf2 *mem.Buffer, off, n, root int, dt mpi.Datatype, op mpi.Op) *Request {
	r := c.getReq(rank)
	r.kind, r.buf, r.buf2 = kind, buf, buf2
	r.off, r.n, r.root = off, n, root
	r.dt, r.op = dt, op
	r.bytes = int64(n)
	return r
}

// issue appends r to the caller's lane and ensures a helper is draining
// it. The helper is spawned with Engine.Go, which schedules it after the
// events already pending at the current timestamp — so a burst of
// back-to-back issues queues entirely before the helper's first step, and
// the fusion window naturally sees the whole burst.
func (c *Comm) issue(p *env.Proc, r *Request) *Request {
	lane := &c.nb[p.Rank]
	lane.pending++
	c.inflightCur++
	if c.rec != nil {
		c.rec.NoteInflight(c.inflightCur)
	}
	if c.obsClock != nil {
		r.issued = c.obsClock()
	}
	lane.queue = append(lane.queue, r)
	if !lane.active {
		lane.active = true
		rank := p.Rank
		c.W.Sys.Eng.Go(fmt.Sprintf("xhc.nb.r%d", rank), func(sp *sim.Proc) {
			c.nbHelper(&env.Proc{S: sp, W: c.W, Rank: rank, Core: c.W.Core(rank)})
		})
	}
	return r
}

// issueBlocking routes a blocking collective through the request queue —
// the path a blocking call takes while non-blocking requests are
// outstanding. Diverted calls are never fusable: a rank with an empty lane
// runs the same op inline with the blocking protocol, and protocol choice
// must stay rank-uniform.
func (c *Comm) issueBlocking(p *env.Proc, r *Request) {
	c.issue(p, r).Wait(p)
}

// Ibcast starts a non-blocking broadcast of buf[off:off+n] from root.
func (c *Comm) Ibcast(p *env.Proc, buf *mem.Buffer, off, n, root int) *Request {
	sizeCheck(buf, off, n)
	r := c.buildReq(p.Rank, reqBcast, buf, nil, off, n, root, 0, 0)
	r.fuse = n > 0 && n <= c.fuseMax
	return c.issue(p, r)
}

// Iallreduce starts a non-blocking allreduce of sbuf into rbuf.
func (c *Comm) Iallreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) *Request {
	sizeCheck(sbuf, 0, n)
	return c.issue(p, c.buildReq(p.Rank, reqAllreduce, sbuf, rbuf, 0, n, 0, dt, op))
}

// Ireduce starts a non-blocking reduce of sbuf into root's rbuf.
func (c *Comm) Ireduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, root int) *Request {
	sizeCheck(sbuf, 0, n)
	return c.issue(p, c.buildReq(p.Rank, reqReduce, sbuf, rbuf, 0, n, root, dt, op))
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier(p *env.Proc) *Request {
	return c.issue(p, c.buildReq(p.Rank, reqBarrier, nil, nil, 0, 0, 0, 0, 0))
}

// Iallgather starts a non-blocking allgather of blockLen-byte blocks.
func (c *Comm) Iallgather(p *env.Proc, in, out *mem.Buffer, blockLen int) *Request {
	sizeCheck(in, 0, blockLen)
	sizeCheck(out, 0, blockLen*c.W.N)
	return c.issue(p, c.buildReq(p.Rank, reqAllgather, in, out, 0, blockLen, 0, 0, 0))
}

// Iscatter starts a non-blocking scatter of blockLen-byte blocks from
// root's buf into each rank's out.
func (c *Comm) Iscatter(p *env.Proc, buf, out *mem.Buffer, blockLen, root int) *Request {
	sizeCheck(out, 0, blockLen)
	return c.issue(p, c.buildReq(p.Rank, reqScatter, buf, out, 0, blockLen, root, 0, 0))
}

// InFlight returns the number of currently outstanding requests on the
// communicator (all ranks).
func (c *Comm) InFlight() int64 { return c.inflightCur }

// Done reports completion without consuming the request.
func (r *Request) Done() bool { return r.done }

// Test polls the request once, advancing virtual time just enough for
// helper processes to make progress. On true the request is consumed.
func (r *Request) Test(p *env.Proc) bool {
	if !r.done {
		p.S.Sleep(testPoll)
	}
	if !r.done {
		return false
	}
	r.c.release(r)
	return true
}

// Wait blocks the calling proc until the request completes, then consumes
// it. The loop guards against stale wakeups addressed to a previous
// suspension of the same proc.
func (r *Request) Wait(p *env.Proc) {
	for !r.done {
		r.waiters = append(r.waiters, reqWaiter{p: p.S, token: p.S.NextSuspendToken()})
		p.S.Suspend("xhc: request wait")
	}
	r.c.release(r)
}

// Waitall waits for every non-nil request, in order.
func Waitall(p *env.Proc, rs ...*Request) {
	for _, r := range rs {
		if r != nil {
			r.Wait(p)
		}
	}
}

// nbHelper is the per-rank progress process: it drains the lane in issue
// order, popping maximal fusable prefixes into one fused traversal and
// executing everything else through the normal blocking bodies. It exits
// when the queue runs dry; the next issue respawns it.
func (c *Comm) nbHelper(p *env.Proc) {
	lane := &c.nb[p.Rank]
	var batch [maxFuseBatch]*Request
	for {
		if lane.head == len(lane.queue) {
			lane.queue = lane.queue[:0]
			lane.head = 0
			lane.active = false
			return
		}
		r := lane.queue[lane.head]
		if c.obsClock != nil {
			r.svcStart = c.obsClock()
		}
		if !r.fuse {
			lane.head++
			if !c.chaos().EarlyComplete {
				c.execReq(p, r)
			}
			c.completeReq(r)
			continue
		}
		k := 0
		for lane.head < len(lane.queue) && k < maxFuseBatch {
			nx := lane.queue[lane.head]
			if !nx.fuse || nx.root != r.root || nx.n != r.n {
				// A fusable request that cannot join this batch is a ragged
				// break — the shape mismatch the fusion window tolerates but
				// cannot fuse across. Counted per op (rank 0), like Ops.
				if nx.fuse && c.rec != nil && p.Rank == 0 {
					c.rec.CountFuseAbort()
				}
				break
			}
			nx.svcStart = r.svcStart
			batch[k] = nx
			k++
			lane.head++
		}
		c.execFused(p, batch[:k])
		for i := range batch[:k] {
			batch[i] = nil
		}
	}
}

// execReq runs a request's blocking body on the helper proc.
func (c *Comm) execReq(p *env.Proc, r *Request) {
	switch r.kind {
	case reqBcast:
		c.bcast(p, r.buf, r.off, r.n, r.root)
	case reqAllreduce:
		c.allreduce(p, r.buf, r.buf2, r.n, r.dt, r.op, true, 0)
	case reqReduce:
		c.allreduce(p, r.buf, r.buf2, r.n, r.dt, r.op, false, r.root)
	case reqBarrier:
		c.barrier(p)
	case reqAllgather:
		c.allgather(p, r.buf, r.buf2, r.n)
	case reqScatter:
		c.scatter(p, r.buf, r.buf2, r.n, r.root)
	case reqGather:
		c.gather(p, r.buf, r.buf2, r.n, r.root)
	default:
		panic(fmt.Sprintf("core: unknown request kind %d", r.kind))
	}
}

// completeReq publishes a request's completion: records its span, marks it
// done, wakes its waiters and releases the lane's pending gate. The gate
// is released last so pending==0 proves the helper performs no further
// shared-state activity for this request.
func (c *Comm) completeReq(r *Request) {
	if c.chaos().LostProgress {
		// Mutation: drop the completion on the floor — the body ran, but
		// Test never reports done and Wait suspends forever.
		return
	}
	lane := &c.nb[r.rank]
	lane.seq++
	if c.rec != nil {
		end := c.obsClock()
		q := r.svcStart - r.issued
		if q < 0 || r.svcStart == 0 {
			q = 0
		}
		rec := obs.FlightRecord{
			Seq: lane.seq, Start: r.issued, End: end,
			Bytes: r.bytes, Lane: int32(r.rank), Op: obs.OpRequest,
		}
		rec.Phase[obs.PhaseQueueWait] = q
		c.rec.RecordRequest(rec)
		if c.Trace != nil {
			core := c.W.Core(r.rank)
			if q > 0 {
				c.Trace.Record(core, -1, obs.PhaseQueueWait, "request", lane.seq, r.issued, r.issued+q, r.bytes)
			}
			c.Trace.Record(core, -1, obs.PhaseCollective, "request", lane.seq, r.issued, end, r.bytes)
		}
	}
	r.done = true
	if len(r.waiters) > 0 {
		eng := c.W.Sys.Eng
		now := eng.Now()
		for _, w := range r.waiters {
			eng.Wake(w.p, w.token, now)
		}
		r.waiters = r.waiters[:0]
	}
	lane.pending--
	c.inflightCur--
}

// execFused runs a popped batch of same-shape small broadcasts as one
// fused hierarchy traversal (proto.Fused), with this backend's op
// accounting around it.
func (c *Comm) execFused(p *env.Proc, batch []*Request) {
	if c.chaos().EarlyComplete {
		// Mutation: complete the whole batch without moving a byte (and
		// without touching any counter — uniform across ranks, so nothing
		// hangs; byte-exactness sees the stale payloads).
		for _, r := range batch {
			c.completeReq(r)
		}
		return
	}
	k := len(batch)
	n := batch[0].n
	st := c.stateFor(batch[0].root)
	view := st.views[p.Rank]
	first := view.opSeq + 1
	view.opSeq += uint64(k)
	if p.Rank == 0 {
		c.Ops += int64(k)
		if c.rec != nil {
			c.rec.CountFusedBatch(k, int64(k)*int64(n))
		}
	}
	pc := c.newPhaseClock(p, obs.OpBcast, view.opSeq, int64(k)*int64(n), st.h.NLevels())
	subs := c.nb[p.Rank].subs[:k]
	for i, r := range batch {
		subs[i] = proto.Sub[*mem.Buffer]{Buf: r.buf, Off: r.off}
	}
	proto.Fused(c.mem(p, pc), &st.plans[p.Rank], first, view.cumBytes, subs, n)
	pc.finish()
	for i, r := range batch {
		subs[i].Buf = nil
		c.completeReq(r)
	}
}
