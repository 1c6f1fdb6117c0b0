package gxhc

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"xhc/internal/obs"
	"xhc/internal/proto"
)

// Non-blocking collectives (DESIGN.md §15). Ibcast/Iallreduce/Ireduce/
// Ibarrier/Iallgather/Iscatter return a *Request immediately; the op runs
// on the rank's dedicated worker goroutine (started lazily on the first
// issue, one per rank so per-rank op order is preserved), and the caller
// polls with Test or blocks with Wait. Blocking collectives called while
// the rank has requests in flight are ordered behind them through the same
// queue (the pending gate in the public wrappers), so MPI's "the i-th call
// on a communicator matches the i-th call everywhere" discipline holds
// across mixed blocking/non-blocking programs.
//
// Small same-shape Ibcasts (payload <= Config.FuseBytes) are fusable: the
// worker drains consecutive matching requests from its queue and runs them
// as one hierarchy traversal (proto.Fused). Batch boundaries are allowed to
// be ragged across ranks — the protocol tolerates a leader that batched
// [1..2],[3..4] against a member that batched [1..4] — because shape
// changes break batches at the same op index everywhere (op-order
// uniformity), so every op inside an overlapping window shares one (root,
// n) and the groupCtl.fuseFirst offset arithmetic stays valid.

const (
	// nbQueueCap bounds a rank's in-flight request queue; issue blocks
	// (applying backpressure, not deadlock — the worker drains
	// independently) when the queue is full.
	nbQueueCap = 64
	// maxFuseBatch caps how many fusable broadcasts one traversal carries.
	maxFuseBatch = 8
	// defaultFuseBytes is the fusion threshold when Config.FuseBytes is 0 —
	// the CICO/XPMEM size-class boundary (a payload this small is latency-
	// bound, so amortizing the flag round-trips across a batch is the win).
	defaultFuseBytes = 1 << 10
)

type reqKind uint8

const (
	reqBcast reqKind = iota
	reqAllreduce
	reqReduce
	reqBarrier
	reqAllgather
	reqScatter
)

// Request is one in-flight non-blocking collective. Requests are pooled
// per rank (freelist in nbRank), so the steady-state issue/complete path
// allocates nothing. After Wait returns or Test reports true the request
// is invalid (recycled) — the MPI_REQUEST_NULL discipline.
type Request struct {
	c    *Comm
	rank int
	kind reqKind
	// fuse marks a fusable small broadcast (set only by Ibcast).
	fuse bool
	root int
	op   ReduceOp
	buf  []byte // bcast buf / allgather in / scatter in
	buf2 []byte // allgather out / scatter out
	fdst []float64
	fsrc []float64

	issued   int64 // issue timestamp (instrumented runs only)
	svcStart int64 // worker pop timestamp (service start)
	bytes    int64

	// done is the completion flag (worker publishes, caller polls); parked
	// tells the worker a waiter may be blocked on ch (Dekker handshake,
	// same shape as flagLine's). ch is the one-token wake channel.
	done   atomic.Uint32
	parked atomic.Uint32
	ch     chan struct{}
	next   *Request // freelist link
}

// nbRank is one rank's non-blocking lane. q and pending are shared with
// the worker; started and free are touched only by the rank's own
// application goroutine (the same single-caller discipline every gxhc
// rank-indexed API already requires).
type nbRank struct {
	q       chan *Request
	started bool
	free    *Request
	// pending counts the rank's issued-but-incomplete requests; the public
	// blocking wrappers divert through the queue while it is non-zero.
	pending atomic.Int64
	// seq numbers completed requests (worker-only) for per-request spans.
	seq uint64
	// subs holds the sub-op buffers of the batch being fused (worker-only).
	subs [maxFuseBatch]proto.Sub[[]byte]
	_    [cacheLine]byte
}

// getReq pops a pooled request (or allocates the lane's first few),
// resetting completion state and draining any stale wake token left by a
// previous life's worker.
func (c *Comm) getReq(rank int) *Request {
	w := &c.nb[rank]
	r := w.free
	if r == nil {
		return &Request{c: c, rank: rank, ch: make(chan struct{}, 1)}
	}
	w.free = r.next
	r.next = nil
	r.done.Store(0)
	r.parked.Store(0)
	select {
	case <-r.ch:
	default:
	}
	return r
}

// release recycles a completed request: buffer references are cleared so
// the pool never pins user memory, and the object returns to its rank's
// freelist. Called only from the rank's application goroutine.
func (r *Request) release() {
	r.buf, r.buf2, r.fdst, r.fsrc = nil, nil, nil, nil
	r.fuse = false
	r.bytes = 0
	w := &r.c.nb[r.rank]
	r.next = w.free
	w.free = r
}

// issue enqueues r on its rank's worker, starting the worker on first use.
func (c *Comm) issue(r *Request) *Request {
	w := &c.nb[r.rank]
	w.pending.Add(1)
	cur := c.inflight.Add(1)
	if c.rec != nil {
		c.rec.NoteInflight(cur)
	}
	if c.clk != nil {
		r.issued = c.clk()
	}
	if !w.started {
		w.started = true
		go c.nbWorker(r.rank)
	}
	w.q <- r
	return r
}

// issueBlocking routes a blocking collective through the request queue
// (because the rank has non-blocking requests in flight) and waits inline.
// The request is never fusable: the matching calls on other ranks are
// blocking too and run the blocking body directly.
func (c *Comm) issueBlocking(rank int, kind reqKind, buf, buf2 []byte, fdst, fsrc []float64, root int, op ReduceOp) {
	r := c.getReq(rank)
	r.kind, r.buf, r.buf2, r.fdst, r.fsrc, r.root, r.op = kind, buf, buf2, fdst, fsrc, root, op
	c.issue(r).Wait()
}

// Ibcast starts a non-blocking broadcast of root's buf into every
// participant's buf and returns its handle. Small broadcasts (len(buf) <=
// Config.FuseBytes) are fusable.
func (c *Comm) Ibcast(rank int, buf []byte, root int) *Request {
	r := c.getReq(rank)
	r.kind, r.buf, r.root = reqBcast, buf, root
	n := len(buf)
	r.bytes = int64(n)
	r.fuse = n > 0 && n <= c.fuseMax
	return c.issue(r)
}

// Iallreduce starts a non-blocking element-wise reduction of src across
// all participants into every participant's dst.
func (c *Comm) Iallreduce(rank int, dst, src []float64, op ReduceOp) *Request {
	if len(dst) != len(src) {
		panic("gxhc: dst/src length mismatch")
	}
	r := c.getReq(rank)
	r.kind, r.fdst, r.fsrc, r.root, r.op = reqAllreduce, dst, src, 0, op
	r.bytes = int64(len(src)) * 8
	return c.issue(r)
}

// Ireduce starts a non-blocking rooted reduction (result in root's dst).
func (c *Comm) Ireduce(rank int, dst, src []float64, root int, op ReduceOp) *Request {
	r := c.getReq(rank)
	r.kind, r.fdst, r.fsrc, r.root, r.op = reqReduce, dst, src, root, op
	r.bytes = int64(len(src)) * 8
	return c.issue(r)
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier(rank int) *Request {
	r := c.getReq(rank)
	r.kind = reqBarrier
	return c.issue(r)
}

// Iallgather starts a non-blocking allgather of each rank's in block into
// every rank's out buffer.
func (c *Comm) Iallgather(rank int, in, out []byte) *Request {
	r := c.getReq(rank)
	r.kind, r.buf, r.buf2 = reqAllgather, in, out
	r.bytes = int64(len(in))
	return c.issue(r)
}

// Iscatter starts a non-blocking scatter of root's in blocks into each
// rank's out.
func (c *Comm) Iscatter(rank int, in, out []byte, root int) *Request {
	r := c.getReq(rank)
	r.kind, r.buf, r.buf2, r.root = reqScatter, in, out, root
	r.bytes = int64(len(out))
	return c.issue(r)
}

// Done reports completion without consuming the request — Test or Wait
// must still retire it. It exists for ordering assertions over a window
// of outstanding requests (per-rank completion is FIFO, so a later
// request observed done implies every earlier one is).
func (r *Request) Done() bool { return r.done.Load() != 0 }

// Test reports whether the request has completed, yielding the processor
// once so a Test loop cooperatively progresses the worker even on a
// saturated machine. On true the request is recycled and must not be
// touched again.
func (r *Request) Test() bool {
	if r.done.Load() == 0 {
		runtime.Gosched()
		if r.done.Load() == 0 {
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
	for r.done.Load() == 0 {
		select {
		case <-r.ch: // drain a stale token before (re-)registering
		default:
		}
		r.parked.Store(1)
		if r.done.Load() != 0 {
			break
		}
		<-r.ch
	}
	r.release()
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
// joined); a communicator that never issued a request needs no Close.
func (c *Comm) Close() {
	for r := range c.nb {
		if c.nb[r].started {
			c.nb[r].q <- nil
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

// nbWorker is rank's request loop: pop, batch consecutive fusable
// broadcasts of the same shape, execute, publish completion. A nil request
// is the Close sentinel.
func (c *Comm) nbWorker(rank int) {
	w := &c.nb[rank]
	var batch [maxFuseBatch]*Request
	var carry *Request
	for {
		var r *Request
		if carry != nil {
			r, carry = carry, nil
		} else {
			r = <-w.q
		}
		if r == nil {
			return
		}
		if c.clk != nil {
			r.svcStart = c.clk()
		}
		if !r.fuse {
			if c.cfg.Chaos == nil || !c.cfg.Chaos.EarlyComplete {
				c.execReq(r)
			}
			c.completeReq(r)
			continue
		}
		batch[0] = r
		k := 1
		stop := false
	drain:
		for k < maxFuseBatch {
			select {
			case nx := <-w.q:
				if nx == nil {
					stop = true
					break drain
				}
				if nx.fuse && nx.root == r.root && len(nx.buf) == len(r.buf) {
					nx.svcStart = r.svcStart
					batch[k] = nx
					k++
				} else {
					// A fusable request with a mismatched shape breaks the
					// batch: a ragged fuse abort (counted per op on rank 0,
					// the Ops convention).
					if nx.fuse && c.rec != nil && rank == 0 {
						c.rec.CountFuseAbort()
					}
					carry = nx
					break drain
				}
			default:
				break drain
			}
		}
		c.execFused(rank, batch[:k])
		for i := 0; i < k; i++ {
			batch[i] = nil
		}
		if stop {
			return
		}
	}
}

// execReq dispatches one queued request to its blocking body.
func (c *Comm) execReq(r *Request) {
	switch r.kind {
	case reqBcast:
		c.bcast(r.rank, r.buf, r.root)
	case reqAllreduce:
		c.reduceFloat64(r.rank, r.fdst, r.fsrc, 0, true, r.op)
	case reqReduce:
		c.reduceFloat64(r.rank, r.fdst, r.fsrc, r.root, false, r.op)
	case reqBarrier:
		c.barrier(r.rank)
	case reqAllgather:
		c.allgather(r.rank, r.buf, r.buf2)
	case reqScatter:
		c.scatter(r.rank, r.buf, r.buf2, r.root)
	}
}

// completeReq publishes a request's completion: per-request span, done
// flag, parked-waiter wake (Dekker re-check), pending/inflight retire —
// in that order, so pending reaching zero proves the worker is idle and
// the view counters are safe for an inline blocking call.
func (c *Comm) completeReq(r *Request) {
	if c.cfg.Chaos != nil && c.cfg.Chaos.LostProgress {
		// Mutation: the op ran but its completion is dropped — Test never
		// reports done and Wait blocks forever.
		return
	}
	w := &c.nb[r.rank]
	w.seq++
	if c.rec != nil {
		end := c.clk()
		q := r.svcStart - r.issued
		if q < 0 || r.svcStart == 0 {
			q = 0
		}
		rec := obs.FlightRecord{
			Seq: w.seq, Start: r.issued, End: end, Bytes: r.bytes,
			Lane: int32(r.rank), Op: obs.OpRequest,
		}
		rec.Phase[obs.PhaseQueueWait] = q
		c.rec.RecordRequest(rec)
		if c.trace != nil {
			if q > 0 {
				c.trace.Record(r.rank, -1, obs.PhaseQueueWait, "request", w.seq, r.issued, r.issued+q, r.bytes)
			}
			c.trace.Record(r.rank, -1, obs.PhaseCollective, "request", w.seq, r.issued, end, r.bytes)
		}
	}
	r.done.Store(1)
	if r.parked.Load() != 0 {
		select {
		case r.ch <- struct{}{}:
		default:
		}
	}
	w.pending.Add(-1)
	c.inflight.Add(-1)
}

// execFused runs a popped batch of same-shape small broadcasts as one
// fused hierarchy traversal (proto.Fused), with this backend's op
// accounting around it.
func (c *Comm) execFused(rank int, batch []*Request) {
	if c.cfg.Chaos != nil && c.cfg.Chaos.EarlyComplete {
		for _, r := range batch {
			c.completeReq(r)
		}
		return
	}
	n := len(batch[0].buf)
	k := len(batch)
	st, err := c.stateFor(batch[0].root)
	if err != nil {
		panic(err)
	}
	v := &c.views[rank]
	first := v.opSeq + 1
	v.opSeq += uint64(k)
	v.lastBytes = n
	if rank == 0 && c.rec != nil {
		c.rec.CountFusedBatch(k, int64(k)*int64(n))
	}
	wc := c.newWallClock(rank, obs.OpBcast, v.opSeq, int64(k*n), st.h.NLevels())
	w := &c.nb[rank]
	subs := w.subs[:k]
	for i, r := range batch {
		subs[i] = proto.Sub[[]byte]{Buf: r.buf}
	}
	proto.Fused(c.mem(rank, wc, n), &st.plans[rank].Plan, first, v.cum[:], subs, n)
	wc.finish()
	for i, r := range batch {
		subs[i].Buf = nil
		c.completeReq(r)
	}
}
