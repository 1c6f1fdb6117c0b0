package proto

import "sync/atomic"

// The non-blocking request lane (DESIGN.md §15), written once for both
// backends. Each rank owns a Lane: an I-call fills a pooled request, Issue
// counts it, the backend queues it, and the rank's worker runs Drain,
// which runs requests (or fused runs of small broadcasts) and completes
// them in issue order. While a rank has requests outstanding its blocking
// calls queue behind them (Gated), so per-rank issue order is total. The
// backend keeps its queue and worker (Backend), how Test yields and how
// Wait parks, its argument types and its per-op bookkeeping.

// Kind is the collective a request runs.
type Kind uint8

const (
	KindBcast Kind = iota
	KindAllreduce
	KindReduce
	KindBarrier
	KindAllgather
	KindScatter
	KindGather
)

// MaxFuseBatch caps how many same-shape small broadcasts one Fused
// traversal carries; it also sizes a fusing rank's staging.
const MaxFuseBatch = 8

// Req is the header both backends' requests embed.
type Req struct {
	Kind Kind
	Fuse bool // a fusable small broadcast (set by Issue)
	Root int
	N    int // payload bytes (a block for the v-collectives)

	issued   int64 // clock at issue (0 when unobserved)
	svcStart int64 // clock when the worker popped it
	done     atomic.Uint32
}

// Init readies a fresh or recycled request for one call.
func (q *Req) Init(k Kind, root, n int) {
	q.Kind, q.Root, q.N = k, root, n
	q.done.Store(0)
}

// Done reports completion without consuming the request: a later request
// of the same lane done implies every earlier one is (FIFO completion).
func (q *Req) Done() bool { return q.done.Load() != 0 }

func (q *Req) req() *Req { return q }

// Request is a backend's request: a pointer to a struct embedding Req.
type Request interface{ req() *Req }

// Recorder is the observability a lane feeds; *obs.Clocks implements it,
// and a nil *obs.Clocks records nothing.
type Recorder interface {
	Now() int64
	Request(rank int, seq uint64, issued, svcStart, bytes int64)
	NoteInflight(cur int64)
	CountFuseAbort()
	CountFusedBatch(k int, bytes int64)
}

// Backend is the machine half of a lane's worker.
type Backend[R Request] interface {
	// Next pops the lane's next request. With wait false it returns at
	// once, ok false when none is queued; with wait true, ok false ends
	// the drain.
	Next(wait bool) (r R, ok bool)
	// Run runs one request's blocking body.
	Run(r R)
	// RunFused runs a batch of same-shape fusable broadcasts, in issue
	// order, as one Fused traversal with the backend's op accounting.
	RunFused(batch []R)
	// Wake wakes a caller parked in r's Wait; r is already done.
	Wake(r R)
	// Obs returns the communicator's current op clocks.
	Obs() Recorder
}

// Lane is one rank's request lane. The fields every op writes come first,
// so a backend can keep them on one cache line with its queue.
type Lane[R Request] struct {
	pending  atomic.Int64 // issued, not completed: the blocking calls' gate
	free     []R          // recycled requests (the issuing rank only)
	seq      uint64
	rank     int
	fuseMax  int
	chaos    *Chaos
	inflight *atomic.Int64   // the communicator's outstanding requests
	batch    [MaxFuseBatch]R // the worker's batch being fused
}

// Init binds the lane to its rank, the communicator's fusion threshold
// (broadcasts of 1..fuseMax bytes fuse), its seeded bugs and its count of
// outstanding requests.
func (l *Lane[R]) Init(rank, fuseMax int, chaos *Chaos, inflight *atomic.Int64) {
	l.rank, l.fuseMax, l.chaos, l.inflight = rank, fuseMax, chaos, inflight
}

// Gated reports whether the rank has requests outstanding, in which case
// a blocking call must queue behind them. One atomic load: it sits on
// every blocking op's path.
func (l *Lane[R]) Gated() bool { return l.pending.Load() != 0 }

// Get pops a recycled request; ok is false when there is none.
func (l *Lane[R]) Get() (r R, ok bool) {
	if n := len(l.free); n > 0 {
		r, l.free = l.free[n-1], l.free[:n-1]
		return r, true
	}
	return r, false
}

// Put recycles a consumed request.
func (l *Lane[R]) Put(r R) { l.free = append(l.free, r) }

// Issue counts r outstanding and stamps its issue time; the backend then
// queues it. Only a non-blocking broadcast of 1..fuseMax bytes is
// fusable: the rule reads rank-uniform facts only, so every rank decides
// each op's protocol alike. A blocking call queued behind requests never
// fuses, since a rank with an empty lane runs the same op inline.
func (l *Lane[R]) Issue(r R, nonblocking bool, o Recorder) {
	q := r.req()
	q.Fuse = nonblocking && q.Kind == KindBcast && q.N > 0 && q.N <= l.fuseMax
	l.pending.Add(1)
	o.NoteInflight(l.inflight.Add(1))
	q.issued = o.Now()
}

// Drain is a lane's worker loop. It pops in issue order and runs each
// non-fusable request alone. A fusable one opens a batch that takes the
// following queued requests while they are fusable with the same root
// and size, up to MaxFuseBatch; a fusable request of another shape ends
// the batch and counts one ragged abort (on rank 0, once per op, like the
// backends' op counts). It returns when Next(true) reports the end.
func Drain[R Request, B Backend[R]](l *Lane[R], b B) {
	var next R // the request that ended the last batch
	held := false
	for {
		r := next
		if !held {
			var ok bool
			if r, ok = b.Next(true); !ok {
				return
			}
		}
		held = false
		o := b.Obs()
		q := r.req()
		q.svcStart = o.Now()
		if !q.Fuse {
			if !l.chaos.EarlyComplete {
				b.Run(r)
			}
			complete(l, b, o, r)
			continue
		}
		batch := append(l.batch[:0], r)
		for len(batch) < MaxFuseBatch {
			x, ok := b.Next(false)
			if !ok {
				break
			}
			xq := x.req()
			if !xq.Fuse || xq.Root != q.Root || xq.N != q.N {
				if xq.Fuse && l.rank == 0 {
					o.CountFuseAbort()
				}
				next, held = x, true
				break
			}
			xq.svcStart = q.svcStart
			batch = append(batch, x)
		}
		if !l.chaos.EarlyComplete {
			// Mutation EarlyComplete skips the traversal and its counters
			// alike on every rank, so nothing hangs.
			if l.rank == 0 {
				o.CountFusedBatch(len(batch), int64(len(batch))*int64(q.N))
			}
			b.RunFused(batch)
		}
		for _, x := range batch {
			complete(l, b, o, x)
		}
		clear(l.batch[:])
	}
}

// complete publishes r's completion: its flight record, the done flag,
// the wake of a parked caller, then the lane's pending count and the
// communicator's in-flight count. Pending goes last, so a zero proves the
// worker touches no shared state for r any more, and a blocking call may
// run inline.
func complete[R Request, B Backend[R]](l *Lane[R], b B, o Recorder, r R) {
	if l.chaos.LostProgress {
		// Mutation: the body ran, but Test never reports done and Wait
		// parks forever.
		return
	}
	q := r.req()
	l.seq++
	o.Request(l.rank, l.seq, q.issued, q.svcStart, int64(q.N))
	q.done.Store(1)
	b.Wake(r)
	l.pending.Add(-1)
	l.inflight.Add(-1)
}
