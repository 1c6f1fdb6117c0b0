// Cluster runtime: a multi-node job is one World per node — each with its
// own engine and memory system, i.e. an ENGINE SHARD — joined by an
// inter-node Fabric. Shards run in parallel between inter-node
// synchronization points; all cross-shard state moves in a sequential
// coordinator phase, which is what keeps every report and schedule
// fingerprint bit-exact at any worker count or GOMAXPROCS (the determinism
// argument is spelled out in DESIGN.md §14).
package env

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// ClusterWorld is a multi-node MPI job of Cl.Nodes x PerNode ranks.
type ClusterWorld struct {
	Cl      *topo.Cluster
	Nodes   []*World
	Fabric  *mem.Fabric
	PerNode int
	N       int

	// Workers is the number of goroutines running shards between
	// synchronization points (0: GOMAXPROCS, 1: fully sequential — the
	// byte-identical reference the check gate compares against).
	Workers int

	// Per-node outboxes, appended by that node's procs while its shard
	// runs (single goroutine at a time) and drained by the coordinator
	// while all shards are stopped — never touched concurrently.
	outbox [][]*fabricOp

	// arrivals[src*nodes+dst] is the FIFO of transmitted-but-undelivered
	// messages per directed node pair; recvQ mirrors it for posted
	// receives. Fabric sends are eager (CICO staging into the NIC buffer),
	// so a message can arrive before its receive is posted and vice versa.
	arrivals [][]arrival
	recvQ    [][]*fabricOp

	gb clusterBarrier

	batch []*mem.Msg // reusable Solve batch
}

type opKind uint8

const (
	opSend opKind = iota
	opRecv
)

// fabricOp is one posted fabric operation: an eager send (payload already
// snapshotted from the NIC staging buffer) or a receive (delivery target).
type fabricOp struct {
	kind    opKind
	src     int // source node
	dst     int // destination node
	bytes   int
	payload []byte      // sends: staged copy of the outgoing bytes
	buf     *mem.Buffer // recvs: destination NIC buffer
	off     int
	posted  sim.Time
	proc    *sim.Proc
	token   uint64
	msg     mem.Msg // send solve slot
}

// arrival is a transmitted message waiting for its receive.
type arrival struct {
	at   sim.Time
	data []byte
}

// clusterBarrier is the cross-node harness rendezvous (measurement
// scaffolding, charges no model time — the cluster analogue of
// HarnessBarrier). Arrivals append to per-node slices so shard goroutines
// never share a slice; release happens in the coordinator.
type clusterBarrier struct {
	epoch   uint64
	arrived int
	waiters [][]clusterWaiter
}

type clusterWaiter struct {
	p     *sim.Proc
	token uint64
	at    sim.Time
}

// NewClusterWorld creates a cluster job: one fresh World per node (same
// node platform, same rank-to-core mapping m, PerNode = len(m)) joined by
// a fabric with the given parameters.
func NewClusterWorld(cl *topo.Cluster, m topo.Mapping, params mem.Params, fp mem.FabricParams) *ClusterWorld {
	nodes := make([]*World, cl.Nodes)
	for i := range nodes {
		nodes[i] = NewWorldParams(cl.Node, m, params)
		if nodes[i].Obs != nil && nodes[i].Obs.Rec != nil {
			// Stamp the node id into every flight record the shard takes,
			// so cross-shard forensics and the cluster straggler scan can
			// attribute records to nodes.
			nodes[i].Obs.Rec.SetNode(i)
		}
	}
	nn := cl.Nodes
	cw := &ClusterWorld{
		Cl:       cl,
		Nodes:    nodes,
		Fabric:   mem.NewFabric(nn, fp),
		PerNode:  len(m),
		N:        nn * len(m),
		outbox:   make([][]*fabricOp, nn),
		arrivals: make([][]arrival, nn*nn),
		recvQ:    make([][]*fabricOp, nn*nn),
	}
	cw.gb.waiters = make([][]clusterWaiter, nn)
	return cw
}

// NewClusterWorldDefault is NewClusterWorld with the platform-default
// memory parameters and the default fabric.
func NewClusterWorldDefault(cl *topo.Cluster, m topo.Mapping) *ClusterWorld {
	return NewClusterWorld(cl, m, mem.DefaultParams(cl.Node), mem.DefaultFabricParams())
}

// GlobalRank returns the global rank of a node's local rank.
func (cw *ClusterWorld) GlobalRank(node, local int) int { return node*cw.PerNode + local }

// EnableScheduleHash turns on schedule fingerprinting in every shard.
func (cw *ClusterWorld) EnableScheduleHash() {
	for _, w := range cw.Nodes {
		w.Sys.Eng.EnableScheduleHash()
	}
}

// Fingerprint combines the per-shard schedule hashes, in node order, into
// the cluster fingerprint (see sim.CombineShardHashes for why this is
// independent of worker count and GOMAXPROCS).
func (cw *ClusterWorld) Fingerprint() uint64 {
	shards := make([]uint64, len(cw.Nodes))
	for i, w := range cw.Nodes {
		shards[i] = w.Sys.Eng.ScheduleHash()
	}
	return sim.CombineShardHashes(shards)
}

// Send posts an eager fabric send of buf[off:off+n] from node src to node
// dst and blocks p until the source link transfer completes (TxDone) — at
// which point the staging buffer is reusable. The payload is snapshotted
// at post time: the bytes travel even if the sender overwrites the buffer
// afterwards, which is exactly the CICO staging semantics of a NIC buffer.
func (cw *ClusterWorld) Send(p *Proc, src, dst int, buf *mem.Buffer, off, n int) {
	if n > 0 && (off < 0 || off+n > buf.Len()) {
		panic(fmt.Sprintf("env: fabric send out of range: [%d:+%d]/%d", off, n, buf.Len()))
	}
	if n < 0 {
		panic(fmt.Sprintf("env: negative fabric send length %d", n))
	}
	op := &fabricOp{
		kind:   opSend,
		src:    src,
		dst:    dst,
		bytes:  n,
		posted: p.S.Now(),
		proc:   p.S,
	}
	if n > 0 {
		op.payload = make([]byte, n)
		copy(op.payload, buf.Data[off:off+n])
	}
	op.token = p.S.NextSuspendToken()
	cw.outbox[src] = append(cw.outbox[src], op)
	p.S.Suspend("fabric send")
}

// Recv posts a fabric receive from node src into node dst's buf[off:off+n]
// and blocks p until the matching message (FIFO per directed node pair)
// has arrived and its payload has been copied in. The buffer is marked
// DMA-written: caches see a fresh memory-resident version.
func (cw *ClusterWorld) Recv(p *Proc, dst, src int, buf *mem.Buffer, off, n int) {
	if n > 0 && (off < 0 || off+n > buf.Len()) {
		panic(fmt.Sprintf("env: fabric recv out of range: [%d:+%d]/%d", off, n, buf.Len()))
	}
	if n < 0 {
		panic(fmt.Sprintf("env: negative fabric recv length %d", n))
	}
	op := &fabricOp{
		kind:   opRecv,
		src:    src,
		dst:    dst,
		bytes:  n,
		buf:    buf,
		off:    off,
		posted: p.S.Now(),
		proc:   p.S,
	}
	op.token = p.S.NextSuspendToken()
	cw.outbox[dst] = append(cw.outbox[dst], op)
	p.S.Suspend("fabric recv")
}

// HarnessBarrier blocks until all N ranks of the cluster have arrived.
// Like the intra-node HarnessBarrier it charges no model time beyond the
// rendezvous itself: every rank resumes at the latest arrival time (or its
// shard's current time if that shard ran ahead).
func (cw *ClusterWorld) HarnessBarrier(p *Proc, node int) {
	b := &cw.gb
	b.waiters[node] = append(b.waiters[node], clusterWaiter{
		p:     p.S,
		token: p.S.NextSuspendToken(),
		at:    p.S.Now(),
	})
	p.S.SuspendLazy(b, b.epoch, 0)
}

// Reason renders a cluster HarnessBarrier wait for deadlock reports.
func (b *clusterBarrier) Reason(epoch, _ uint64) string {
	return fmt.Sprintf("cluster harness barrier (epoch %d)", epoch)
}

// Run spawns PerNode rank procs on every shard and drives the cluster to
// completion: shards run in parallel until each blocks, then the
// coordinator resolves fabric traffic and the cross-node barrier, wakes
// the unblocked procs, and repeats. body receives the rank's Proc (local
// rank within its node's World) and its node index.
func (cw *ClusterWorld) Run(body func(p *Proc, node int)) error {
	for i, w := range cw.Nodes {
		node, wd := i, w
		for r := 0; r < wd.N; r++ {
			r := r
			wd.Sys.Eng.Go(fmt.Sprintf("n%dr%d", node, r), func(sp *sim.Proc) {
				body(&Proc{S: sp, W: wd, Rank: r, Core: wd.Map.Core(r)}, node)
			})
		}
	}
	done := make([]bool, len(cw.Nodes))
	errs := make([]error, len(cw.Nodes))
	for {
		cw.runShards(done, errs)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		allDone := true
		for _, d := range done {
			if !d {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if !cw.sequentialPhase() {
			return cw.deadlockError()
		}
	}
	var recs []*obs.OpRecorder
	for _, w := range cw.Nodes {
		if w.Obs != nil {
			for _, fn := range w.obsFlush {
				fn(w.Obs)
			}
			w.Obs.Finish(w.Sys.Stats, w.Sys.Eng.Stats())
			if w.Obs.Rec != nil {
				recs = append(recs, w.Obs.Rec)
			}
		}
	}
	if len(recs) == len(cw.Nodes) {
		// Cross-node straggler scan: per-shard detectors only see their own
		// ranks, so node-level skew is invisible to them. Runs sequentially
		// after the shards stop — deterministic at any worker count.
		obs.ScanCluster(recs)
	}
	return nil
}

// runShards runs every shard with pending events until it blocks or
// finishes, across the worker pool. Each shard's engine is driven by
// exactly one goroutine per round; results land in pre-sized slots, so
// the host scheduler influences nothing observable.
func (cw *ClusterWorld) runShards(done []bool, errs []error) {
	var idle []int
	for i := range cw.Nodes {
		if !done[i] && cw.Nodes[i].Sys.Eng.HeapLen() > 0 {
			idle = append(idle, i)
		}
	}
	if len(idle) == 0 {
		return
	}
	w := cw.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(idle) {
		w = len(idle)
	}
	if w <= 1 {
		for _, i := range idle {
			done[i], errs[i] = cw.Nodes[i].Sys.Eng.RunUntilBlocked()
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				done[i], errs[i] = cw.Nodes[i].Sys.Eng.RunUntilBlocked()
			}
		}()
	}
	for _, i := range idle {
		next <- i
	}
	close(next)
	wg.Wait()
}

// sequentialPhase drains the outboxes in node-index order, solves the new
// sends as one fabric batch, matches arrivals against posted receives,
// and releases the cross-node barrier when full. It reports whether any
// proc was woken (no wakeups with blocked shards is a cluster deadlock).
// Every Wake clamps to the target shard's current time: a shard that ran
// ahead simply observes the delivery late, which monotone-flag protocols
// tolerate by construction (the same argument as wake-jitter injection).
func (cw *ClusterWorld) sequentialPhase() bool {
	nn := len(cw.Nodes)
	progress := false

	// Collect this round's sends (in posting order per node, nodes in
	// index order) and append receives to their pair queues.
	cw.batch = cw.batch[:0]
	var sends []*fabricOp
	for node := 0; node < nn; node++ {
		ops := cw.outbox[node]
		cw.outbox[node] = cw.outbox[node][:0]
		for _, op := range ops {
			switch op.kind {
			case opSend:
				op.msg = mem.Msg{Src: op.src, Dst: op.dst, Bytes: op.bytes, Start: op.posted}
				cw.batch = append(cw.batch, &op.msg)
				sends = append(sends, op)
			case opRecv:
				q := op.src*nn + op.dst
				cw.recvQ[q] = append(cw.recvQ[q], op)
			}
		}
	}

	// Solve the batch; wake senders at TxDone and queue arrivals. Solve
	// processes in (Start, Src, Dst) order, but arrivals must enter their
	// pair FIFO in the sender's program order — which is the same thing,
	// because a node's sends are serialized by its leader's virtual time.
	cw.Fabric.Solve(cw.batch)
	for _, op := range sends {
		eng := cw.Nodes[op.src].Sys.Eng
		t := op.msg.TxDone
		if now := eng.Now(); t < now {
			t = now
		}
		eng.Wake(op.proc, op.token, t)
		q := op.src*nn + op.dst
		cw.arrivals[q] = append(cw.arrivals[q], arrival{at: op.msg.Arrive, data: op.payload})
		progress = true
	}

	// Match arrivals to receives, FIFO per directed pair.
	for q := 0; q < nn*nn; q++ {
		for len(cw.arrivals[q]) > 0 && len(cw.recvQ[q]) > 0 {
			a := cw.arrivals[q][0]
			r := cw.recvQ[q][0]
			cw.arrivals[q] = cw.arrivals[q][1:]
			cw.recvQ[q] = cw.recvQ[q][1:]
			if len(a.data) != r.bytes {
				panic(fmt.Sprintf("env: fabric message %d->%d carries %d bytes, receive posted %d",
					r.src, r.dst, len(a.data), r.bytes))
			}
			if r.bytes > 0 {
				copy(r.buf.Data[r.off:r.off+r.bytes], a.data)
				cw.Nodes[r.dst].Sys.MarkDMAWritten(r.buf)
			}
			eng := cw.Nodes[r.dst].Sys.Eng
			t := a.at
			if r.posted > t {
				t = r.posted
			}
			if now := eng.Now(); t < now {
				t = now
			}
			eng.Wake(r.proc, r.token, t)
			progress = true
		}
	}

	// Cross-node barrier: release when all N ranks are in.
	total := 0
	for node := 0; node < nn; node++ {
		total += len(cw.gb.waiters[node])
	}
	if total == cw.N && cw.N > 0 {
		var release sim.Time
		for node := 0; node < nn; node++ {
			for _, wt := range cw.gb.waiters[node] {
				if wt.at > release {
					release = wt.at
				}
			}
		}
		for node := 0; node < nn; node++ {
			eng := cw.Nodes[node].Sys.Eng
			t := release
			if now := eng.Now(); t < now {
				t = now
			}
			for _, wt := range cw.gb.waiters[node] {
				eng.Wake(wt.p, wt.token, t)
			}
			cw.gb.waiters[node] = cw.gb.waiters[node][:0]
		}
		cw.gb.epoch++
		progress = true
	}
	return progress
}

// deadlockError aggregates the per-shard blocked reports plus the pending
// fabric state.
func (cw *ClusterWorld) deadlockError() error {
	var b strings.Builder
	b.WriteString("env: cluster deadlock — all shards blocked, nothing deliverable\n")
	nn := len(cw.Nodes)
	var pend []string
	for q := 0; q < nn*nn; q++ {
		if n := len(cw.arrivals[q]); n > 0 {
			pend = append(pend, fmt.Sprintf("%d msg(s) %d->%d awaiting receive", n, q/nn, q%nn))
		}
		if n := len(cw.recvQ[q]); n > 0 {
			pend = append(pend, fmt.Sprintf("%d recv(s) %d<-%d awaiting message", n, q%nn, q/nn))
		}
	}
	waiting := 0
	for node := 0; node < nn; node++ {
		waiting += len(cw.gb.waiters[node])
	}
	if waiting > 0 {
		pend = append(pend, fmt.Sprintf("%d/%d ranks in cluster barrier", waiting, cw.N))
	}
	sort.Strings(pend)
	for _, s := range pend {
		fmt.Fprintf(&b, "  fabric: %s\n", s)
	}
	for i, w := range cw.Nodes {
		if w.Sys.Eng.Live() > 0 {
			fmt.Fprintf(&b, "node %d: %v\n", i, w.Sys.Eng.BlockedError())
		}
	}
	return fmt.Errorf("%s", b.String())
}
