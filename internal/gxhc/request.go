package gxhc

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"xhc/internal/obs"
	"xhc/internal/proto"
)

// Non-blocking collectives (DESIGN.md §15): real memory's half of package
// proto's request lane (proto.Lane, proto.Drain). The I-calls check their
// arguments on the caller's goroutine and queue a pooled *Request for the
// rank's worker goroutine (one per rank, started by the first issue,
// stopped by Close); Test yields once, Wait parks on a one-token channel.
// Small same-shape Ibcasts (payload <= Config.FuseBytes) fuse. Batch
// boundaries may be ragged across ranks, since shape changes break batches
// at the same op index everywhere: every op inside an overlapping window
// shares one (root, n), and the groupCtl.fuseFirst offsets stay valid.

const (
	// nbQueueCap bounds a rank's in-flight request queue; issue blocks
	// (applying backpressure, not deadlock — the worker drains
	// independently) when the queue is full.
	nbQueueCap = 64
	// defaultFuseBytes is the fusion threshold when Config.FuseBytes is 0 —
	// the CICO/XPMEM size-class boundary (a payload this small is latency-
	// bound, so amortizing the flag round-trips across a batch is the win).
	defaultFuseBytes = 1 << 10
)

// Request is one in-flight non-blocking collective. Requests are pooled
// per rank, so the steady-state issue/complete path allocates nothing.
// After Wait returns or Test reports true the request is invalid
// (recycled) — the MPI_REQUEST_NULL discipline.
type Request struct {
	proto.Req
	// parked tells the worker a waiter may be blocked on ch (Dekker
	// handshake with the header's done flag, same shape as flagLine's,
	// and kept on its cache line); ch is the one-token wake channel.
	parked atomic.Uint32
	ch     chan struct{}

	c    *Comm
	rank int
	op   ReduceOp
	buf  []byte // bcast buf / allgather in / scatter in
	buf2 []byte // allgather out / scatter out
	fdst []float64
	fsrc []float64
}

// nbRank is one rank's lane. started is the rank's own goroutine's; subs
// (the fused batch's buffers) the worker's.
type nbRank struct {
	q       chan *Request
	started bool
	proto.Lane[*Request]
	subs [proto.MaxFuseBatch]proto.Sub[[]byte]
	_    [cacheLine]byte
}

// newReq fills a pooled (or new) request with one call's arguments,
// draining any stale wake token left by a previous life's worker.
func (c *Comm) newReq(rank int, kind proto.Kind, buf, buf2 []byte, fdst, fsrc []float64, root int, op ReduceOp) *Request {
	r, ok := c.nb[rank].Get()
	if !ok {
		r = &Request{c: c, rank: rank, ch: make(chan struct{}, 1)}
	}
	r.parked.Store(0)
	select {
	case <-r.ch:
	default:
	}
	n := len(buf)
	switch kind {
	case proto.KindAllreduce, proto.KindReduce:
		n = len(fsrc) * 8
	case proto.KindScatter:
		n = len(buf2)
	}
	r.Init(kind, root, n)
	r.buf, r.buf2, r.fdst, r.fsrc, r.op = buf, buf2, fdst, fsrc, op
	return r
}

// issue queues r on its rank's worker, starting the worker on first use.
// A blocking call diverted here (nonblocking false) never fuses.
func (c *Comm) issue(r *Request, nonblocking bool) *Request {
	w := &c.nb[r.rank]
	w.Issue(r, nonblocking, c.clocks)
	if !w.started {
		w.started = true
		go proto.Drain(&w.Lane, worker{c, w.q})
	}
	w.q <- r
	return r
}

// Ibcast starts a non-blocking broadcast of root's buf into every
// participant's buf and returns its handle. Small broadcasts (len(buf) <=
// Config.FuseBytes) are fusable.
func (c *Comm) Ibcast(rank int, buf []byte, root int) *Request {
	c.checkRoot(root)
	return c.issue(c.newReq(rank, proto.KindBcast, buf, nil, nil, nil, root, 0), true)
}

// Iallreduce starts a non-blocking element-wise reduction of src across
// all participants into every participant's dst.
func (c *Comm) Iallreduce(rank int, dst, src []float64, op ReduceOp) *Request {
	c.checkReduce(rank, dst, src, 0, true)
	return c.issue(c.newReq(rank, proto.KindAllreduce, nil, nil, dst, src, 0, op), true)
}

// Ireduce starts a non-blocking rooted reduction (result in root's dst).
func (c *Comm) Ireduce(rank int, dst, src []float64, root int, op ReduceOp) *Request {
	c.checkReduce(rank, dst, src, root, false)
	return c.issue(c.newReq(rank, proto.KindReduce, nil, nil, dst, src, root, op), true)
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier(rank int) *Request {
	return c.issue(c.newReq(rank, proto.KindBarrier, nil, nil, nil, nil, 0, 0), true)
}

// Iallgather starts a non-blocking allgather of each rank's in block into
// every rank's out buffer.
func (c *Comm) Iallgather(rank int, in, out []byte) *Request {
	c.checkAllgather(in, out)
	return c.issue(c.newReq(rank, proto.KindAllgather, in, out, nil, nil, 0, 0), true)
}

// Iscatter starts a non-blocking scatter of root's in blocks into each
// rank's out.
func (c *Comm) Iscatter(rank int, in, out []byte, root int) *Request {
	c.checkScatter(rank, in, out, root)
	return c.issue(c.newReq(rank, proto.KindScatter, in, out, nil, nil, root, 0), true)
}

// Test reports whether the request has completed, yielding the processor
// once so a Test loop cooperatively progresses the worker even on a
// saturated machine. On true the request is recycled and must not be
// touched again.
func (r *Request) Test() bool {
	if !r.Done() {
		runtime.Gosched()
		if !r.Done() {
			return false
		}
	}
	r.release()
	return true
}

// Wait blocks until the request completes, then recycles it. The wait is
// the flagLine Dekker shape: publish parked, re-check done, block on the
// one-token channel — looping, because a recycled request's previous
// worker may deliver one stale token after reuse.
func (r *Request) Wait() {
	for !r.Done() {
		select {
		case <-r.ch: // drain a stale token before (re-)registering
		default:
		}
		r.parked.Store(1)
		if r.Done() {
			break
		}
		<-r.ch
	}
	r.release()
}

// release recycles a completed request: buffer references are cleared so
// the pool never pins user memory. Called only from the rank's
// application goroutine.
func (r *Request) release() {
	r.buf, r.buf2, r.fdst, r.fsrc = nil, nil, nil, nil
	r.c.nb[r.rank].Put(r)
}

// Waitall waits on every non-nil request.
func Waitall(rs ...*Request) {
	for _, r := range rs {
		if r != nil {
			r.Wait()
		}
	}
}

// InFlight returns the number of issued-but-incomplete non-blocking
// requests across all ranks.
func (c *Comm) InFlight() int64 { return c.inflight.Load() }

// Close shuts down the rank worker goroutines. Call it only after every
// participant has quiesced (all requests waited, participant goroutines
// joined); a communicator that never issued a request needs no Close. A
// later issue starts a fresh worker.
func (c *Comm) Close() {
	for r := range c.nb {
		if w := &c.nb[r]; w.started {
			close(w.q)
			w.q, w.started = make(chan *Request, nbQueueCap), false
		}
	}
}

// Split creates an independent communicator over len(ranks) participants,
// inheriting c's configuration. gxhc communicators are self-contained
// (private flag arrays, no shared memory system), so the split only
// validates that ranks names a duplicate-free subset of c's ranks; the
// child's participants are renumbered 0..len(ranks)-1 in ranks order, and
// collectives on parent and child run concurrently as ordinary goroutines.
func (c *Comm) Split(ranks []int) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("gxhc: split needs at least one rank")
	}
	seen := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= c.n {
			return nil, fmt.Errorf("gxhc: split rank %d out of range [0,%d)", r, c.n)
		}
		if seen[r] {
			return nil, fmt.Errorf("gxhc: split rank %d duplicated", r)
		}
		seen[r] = true
	}
	return New(len(ranks), c.cfg)
}

// worker is one rank's long-lived request goroutine (proto.Drain): real
// memory's proto.Backend. It holds the queue it was started on, so Close
// can hand the lane a fresh one.
type worker struct {
	c *Comm
	q chan *Request
}

// Next receives from the queue (the worker is its one receiver, so a
// non-empty queue never blocks it); the drain ends when Close closes it.
func (w worker) Next(wait bool) (*Request, bool) {
	if !wait && len(w.q) == 0 {
		return nil, false
	}
	r, ok := <-w.q
	return r, ok
}

// Run dispatches one queued request to its blocking body.
func (w worker) Run(r *Request) {
	c := w.c
	switch r.Kind {
	case proto.KindBcast:
		c.bcast(r.rank, r.buf, r.Root)
	case proto.KindAllreduce:
		c.reduceFloat64(r.rank, r.fdst, r.fsrc, 0, true, r.op)
	case proto.KindReduce:
		c.reduceFloat64(r.rank, r.fdst, r.fsrc, r.Root, false, r.op)
	case proto.KindBarrier:
		c.barrier(r.rank)
	case proto.KindAllgather:
		c.allgather(r.rank, r.buf, r.buf2)
	case proto.KindScatter:
		c.scatter(r.rank, r.buf, r.buf2, r.Root)
	}
}

// RunFused runs a batch of same-shape small broadcasts as one fused
// hierarchy traversal (proto.Fused), with this backend's op accounting.
func (w worker) RunFused(batch []*Request) {
	c := w.c
	rank, n, k := batch[0].rank, batch[0].N, len(batch)
	st, _ := c.stateFor(batch[0].Root)
	v := &c.views[rank]
	first := v.opSeq + 1
	v.opSeq += uint64(k)
	v.lastBytes = n
	wc := c.clocks.Start(rank, obs.OpBcast, v.opSeq, int64(k*n), st.h.NLevels())
	subs := c.nb[rank].subs[:k]
	for i, r := range batch {
		subs[i] = proto.Sub[[]byte]{Buf: r.buf}
	}
	proto.Fused(c.mem(rank, wc, n), &st.plans[rank], first, v.cum[:], subs, n)
	wc.Finish()
	clear(subs)
}

// Wake hands the parked waiter its token (the Dekker re-check in Wait
// covers a waiter that parks after this load).
func (w worker) Wake(r *Request) {
	if r.parked.Load() != 0 {
		select {
		case r.ch <- struct{}{}:
		default:
		}
	}
}

func (w worker) Obs() proto.Recorder { return w.c.clocks }
