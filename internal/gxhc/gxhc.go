// Package gxhc is a native Go implementation of the XHC design for
// goroutine-level collectives: topology-aware hierarchical groups,
// pull-based pipelined broadcast, index-partitioned reduction, and
// single-writer synchronization (plain atomic loads/stores, no
// read-modify-write operations — the discipline the paper's Section III-E
// argues for).
//
// Unlike package core, which runs on the simulated node, gxhc coordinates
// real goroutines sharing real slices, and is usable as a standalone
// library for in-process parallel computations. The broadcast family
// (Bcast, its CICO path up to 1 KiB, fused Ibcast batches, the
// subtree-first acks and the barrier round), Scatter (with the same CICO
// path), Allreduce/Reduce (the pipelined index-partitioned reduction and
// its CICO path), the non-blocking request lane (request.go) and the
// seeded-bug set (proto.Chaos) are package proto's, shared with core; gxhc
// supplies its real-memory layer (rankMem) and its half of the lane. Op
// timing goes through the same obs.OpClock core uses.
//
// The hot path is built for wall-clock speed (DESIGN.md §13): control
// state lives in dense cache-line-padded flag arrays indexed by member
// slot (flagLine, one line per writer — no maps, no false sharing),
// waiters spin briefly then park on per-flag wait queues (Comm.wait),
// reductions run through unrolled bounds-check-free kernels (kernels.go),
// and the steady-state op path performs zero heap allocations.
package gxhc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"xhc/internal/hier"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/topo"
)

// Config tunes a communicator.
type Config struct {
	// GroupSize is the leaf group width of the synthetic 2-level
	// hierarchy (0/1 yields a flat communicator). On a real machine a
	// sensible choice is the number of cores sharing an L3 cache.
	GroupSize int
	// ChunkBytes is the broadcast pipelining granule. It also sets the
	// reduction block size: an allreduce or rooted-reduce reducer folds its
	// slice ChunkBytes/8 elements (at least one) at a time.
	ChunkBytes int
	// Chaos, when non-nil, seeds a deliberate synchronization bug for the
	// verify harness's mutation self-test (see proto.Chaos).
	Chaos *proto.Chaos
	// FuseBytes is the same-shape small-op fusion threshold: non-blocking
	// broadcasts no larger than this are batched by the request worker into
	// a single hierarchy traversal (DESIGN.md §15). 0 selects the default
	// (1 KiB, the CICO/XPMEM size-class boundary); negative disables
	// fusion.
	FuseBytes int
}

// DefaultConfig groups participants by 8 with 64 KiB chunks.
func DefaultConfig() Config { return Config{GroupSize: 8, ChunkBytes: 64 << 10} }

// Comm coordinates N participant goroutines. All participants must call
// each collective in the same order (MPI semantics).
type Comm struct {
	n   int
	cfg Config

	// states[root] is the per-root control structure, built lazily on the
	// first collective rooted there and then read lock-free: the hot path
	// is one atomic pointer load, no mutex. mu only serializes builders.
	mu     sync.Mutex
	states []atomic.Pointer[state]
	views  []viewSlot
	// park[r] is rank r's wait-queue node: the one-token channel the rank
	// blocks on when a flag wait exhausts its spin budget, plus the
	// intrusive link that threads it onto the flag's list. One node per
	// rank (not per flag) — a rank waits on one flag at a time — so
	// parking never allocates.
	park []parkNode
	// agBudget is the spin budget for allgather's per-rank exposure flags,
	// whose fan-in is the whole communicator.
	agBudget int

	// scratch[r] is rank r's internal accumulator for rooted reductions
	// (non-root leaders reduce into it instead of the user's dst), grown
	// by capacity to the next power of two so a mixed-size op sequence
	// settles instead of reallocating. Each rank only touches its own slot.
	scratch [][]float64
	// nb[r] is rank r's non-blocking request lane: the worker queue, the
	// request freelist and the pending gate (request.go).
	nb []nbRank
	// fuse[r] is rank r's fused-broadcast staging buffer (grow-only, only
	// ranks that lead a group stage).
	fuse [][]byte
	// cico[r] is rank r's two-slot copy-in-copy-out buffer for small
	// broadcasts and scatters; mems[r] is its shared-protocol handle, and
	// chaos is Config.Chaos (zero when nil).
	cico  [][]byte
	mems  []rankMem
	chaos proto.Chaos
	// inflight counts non-blocking requests issued but not yet completed,
	// across all ranks (the requests.max_inflight gauge's source).
	inflight atomic.Int64
	// ag[r] exposes rank r's allgather contribution block; the op ends
	// with barrier semantics, so a single slot per rank suffices.
	ag []agSlot

	// trace, when enabled, records per-participant phase spans on wall
	// time; rec, when attached, receives one FlightRecord per (participant,
	// collective). clocks is the per-participant pool of op clocks feeding
	// both, rebuilt when either attaches: nil by default, so the
	// uninstrumented path costs one pointer comparison per collective.
	trace  *obs.Tracer
	rec    *obs.OpRecorder
	clocks *obs.Clocks
}

// EnableTrace attaches a wall-time span tracer (one lane per participant)
// and returns it. Call it before spawning participant goroutines; the
// clock starts at the call. Repeated calls return the same tracer.
func (c *Comm) EnableTrace() *obs.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trace == nil {
		c.trace = obs.NewTracer("gxhc", 0, c.n, obs.WallTicksPerUS, obs.WallClock())
		c.clocks = obs.NewClocks(c.trace, c.rec, c.n, nil)
	}
	return c.trace
}

// Tracer returns the attached tracer (nil unless EnableTrace was called).
func (c *Comm) Tracer() *obs.Tracer { return c.trace }

// AttachRecorder routes one FlightRecord per (participant, collective)
// into rec — an obs.World's recorder created with obs.WallTicksPerUS and
// obs.WallClock(). Call before spawning participant goroutines.
func (c *Comm) AttachRecorder(rec *obs.OpRecorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec = rec
	c.clocks = obs.NewClocks(c.trace, c.rec, c.n, nil)
}

// viewSlot is one participant's mirror of the monotonic counters, padded
// so adjacent ranks' counters never share a cache line (each rank bumps
// its own slot every op).
type viewSlot struct {
	opSeq uint64
	cum   [8]uint64
	// lastBytes is the payload size of the rank's most recent data op.
	// Barrier waits (including allgather's exit barrier) select their spin
	// budget through opBudget(budget, lastBytes): a barrier that follows a
	// bulk op is overwhelmingly waiting on stragglers still moving exactly
	// that payload, so its early finishers must park at the floor instead
	// of yield-storming through the copies; a barrier in a small-op or
	// barrier-only loop keeps the wide fan-in budget. Private to the rank —
	// no sharing.
	lastBytes int
	_         [cacheLine - 16]byte
}

// agSlot is one rank's allgather exposure: blk is a plain field published
// by the seq flag (readers load it only after observing the sequence, the
// writer stores it before).
type agSlot struct {
	seq flagLine
	blk []byte
	_   [cacheLine - 24]byte
}

// redSlot is one member slot's reduction state, all written by the
// member: its contribution's exposure sequence, its contribution bytes
// ready for folding, its folded bytes, and the contribution itself (a
// plain field published by exp), padded to whole lines.
type redSlot struct {
	exp, ready, done flagLine
	buf              []byte
	_                [cacheLine - 24]byte
}

// groupCtl is the shared control block of one hierarchy group. All mutable
// state is either a single-writer flagLine or a plain field published by
// one (exposed by expSeq, acc by accExp, red[s].buf by red[s].exp): every
// writer owns its cache line, so the ack/ready/expose phases do padded
// array loads — no map lookups, no false sharing, no read-modify-write.
type groupCtl struct {
	leader     int
	leaderSlot int
	members    []int32
	// spinBudget is spinBudget(len(members)): waits on this group's
	// flags stay in the yielding spin phase longer the smaller the group.
	spinBudget int
	// exposed holds the leader's current buffer, published by expSeq;
	// acc its reduction accumulator, published by accExp.
	exposed []byte
	acc     []byte
	// fuseFirst is the first sub-op seq of the leader's current fused
	// broadcast batch: exposed[(q-fuseFirst)*n:] holds sub-op q's payload.
	// Plain field published by expSeq, frozen (with the staging it
	// describes) until every member has acked the batch's last sub-op.
	fuseFirst uint64
	_         [24]byte // start the flag lines on a fresh cache line
	// ready is the leader-owned published-bytes counter (single writer).
	ready flagLine
	// expSeq announces the exposure sequence, accExp the accumulator's.
	expSeq, accExp flagLine
	// acks[s] is member slot s's completed-op counter (single writer each).
	acks []flagLine
	// red[s] is member slot s's reduction state.
	red []redSlot
}

// state is one root's hierarchy, its groups' control blocks and every
// rank's shared protocol plan (which groups it leads, innermost first,
// and where it pulls from as a plain member, with its slot in each).
// Collectives never walk the hierarchy, consult a map, or allocate.
type state struct {
	h      *hier.Hierarchy
	groups [][]*groupCtl
	plans  []proto.Plan[*groupCtl]
}

// New creates a communicator for n participants.
func New(n int, cfg Config) (*Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gxhc: need at least one participant, got %d", n)
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 64 << 10
	}
	c := &Comm{n: n, cfg: cfg}
	c.agBudget = spinBudget(n)
	c.states = make([]atomic.Pointer[state], n)
	c.views = make([]viewSlot, n)
	c.park = make([]parkNode, n)
	for r := range c.park {
		c.park[r].ch = make(chan struct{}, 1)
	}
	c.scratch = make([][]float64, n)
	c.ag = make([]agSlot, n)
	c.nb = make([]nbRank, n)
	c.fuse = make([][]byte, n)
	c.cico = make([][]byte, n)
	c.mems = make([]rankMem, n)
	for r := range c.mems {
		c.cico[r] = make([]byte, 2*cicoBytes)
		c.mems[r] = rankMem{c: c, rank: r}
	}
	if cfg.Chaos != nil {
		c.chaos = *cfg.Chaos
	}
	fuseMax := cfg.FuseBytes // negative: no payload is small enough to fuse
	if fuseMax == 0 {
		fuseMax = defaultFuseBytes
	}
	for r := range c.nb {
		c.nb[r].Init(r, fuseMax, &c.chaos, &c.inflight)
		c.nb[r].q = make(chan *Request, nbQueueCap)
	}
	if _, err := c.stateFor(0); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew panics on error.
func MustNew(n int, cfg Config) *Comm {
	c, err := New(n, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of participants.
func (c *Comm) N() int { return c.n }

// synthetic topology: one socket, ceil(n/groupSize) "NUMA" groups.
func (c *Comm) buildHierarchy(root int) (*hier.Hierarchy, error) {
	gs := c.cfg.GroupSize
	var sens hier.Sensitivity
	if gs > 1 && gs < c.n {
		sens = hier.Sensitivity{hier.DomainNUMA}
	}
	groups := (c.n + max(gs, 1) - 1) / max(gs, 1)
	if groups < 1 {
		groups = 1
	}
	t, err := topo.New(topo.Config{
		Name: "gxhc", Arch: "go",
		Sockets: 1, NUMAPerSocket: groups, CoresPerNUMA: max(gs, 1),
	})
	if err != nil {
		return nil, err
	}
	m, err := t.Map(topo.MapCore, c.n)
	if err != nil {
		return nil, err
	}
	return hier.Build(t, m, sens, root)
}

func (c *Comm) stateFor(root int) (*state, error) {
	if root < 0 || root >= c.n {
		return nil, fmt.Errorf("gxhc: root %d out of range [0,%d)", root, c.n)
	}
	if st := c.states[root].Load(); st != nil {
		return st, nil
	}
	return c.buildState(root)
}

func (c *Comm) buildState(root int) (*state, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.states[root].Load(); st != nil {
		return st, nil
	}
	h, err := c.buildHierarchy(root)
	if err != nil {
		return nil, err
	}
	st := &state{h: h}
	for l := 0; l < h.NLevels(); l++ {
		var lvl []*groupCtl
		for gi := range h.GroupsAt(l) {
			g := &h.GroupsAt(l)[gi]
			ctl := &groupCtl{
				leader:     g.Leader,
				members:    make([]int32, len(g.Members)),
				spinBudget: spinBudget(len(g.Members)),
				acks:       make([]flagLine, len(g.Members)),
				red:        make([]redSlot, len(g.Members)),
			}
			for s, m := range g.Members {
				ctl.members[s] = int32(m)
				if m == g.Leader {
					ctl.leaderSlot = s
				}
			}
			lvl = append(lvl, ctl)
		}
		st.groups = append(st.groups, lvl)
	}
	st.plans = proto.Build(h, func(l, gi int) *groupCtl { return st.groups[l][gi] })
	c.states[root].Store(st)
	return st, nil
}

// Bcast distributes root's buf contents to every participant's buf. All
// participants must pass equally sized buffers. While the rank has
// non-blocking requests in flight the call is ordered behind them through
// the request queue (request.go); otherwise it runs inline.
func (c *Comm) Bcast(rank int, buf []byte, root int) {
	c.checkRoot(root)
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindBcast, buf, nil, nil, nil, root, 0), false).Wait()
		return
	}
	c.bcast(rank, buf, root)
}

// bcast is Bcast's body, called inline or from the rank's request worker:
// the shared broadcast protocol (proto.Bcast) on real memory.
func (c *Comm) bcast(rank int, buf []byte, root int) {
	st, _ := c.stateFor(root)
	v := &c.views[rank]
	v.opSeq++
	n := len(buf)
	v.lastBytes = n
	wc := c.clocks.Start(rank, obs.OpBcast, v.opSeq, int64(n), st.h.NLevels())
	proto.Bcast(c.mem(rank, wc, n), &st.plans[rank], v.opSeq, v.cum[:], buf, 0, n)
	wc.Finish()
}

// cicoBytes is the largest broadcast that takes the copy-in-copy-out path
// (proto.Bcast), the paper's 1 KiB default; each rank's CICO buffer holds
// two slots of this size.
const cicoBytes = 1 << 10

// rankMem is one rank's handle on real memory for the shared protocol:
// the op's wall clock and the payload size that selects its spin budget
// (opBudget). One per rank, allocated in New; a rank runs one op at a time.
// Padded to a line: each rank rewrites its handle every op.
type rankMem struct {
	c     *Comm
	rank  int
	wc    *obs.OpClock
	bytes int
	op    ReduceOp // a reduction's element-wise op
	_     [cacheLine - 40]byte
}

// mem points rank's protocol handle at the op it is about to run.
func (c *Comm) mem(rank int, wc *obs.OpClock, bytes int) *rankMem {
	m := &c.mems[rank]
	m.wc, m.bytes = wc, bytes
	return m
}

// flag is the flagLine behind f for member slot s.
func flag(r *proto.Role[*groupCtl], f proto.Flag, s int) *flagLine {
	switch f {
	case proto.Exp:
		return &r.G.expSeq
	case proto.Ready:
		return &r.G.ready
	case proto.Ack:
		return &r.G.acks[s]
	case proto.AccExp:
		return &r.G.accExp
	case proto.RedExp:
		return &r.G.red[s].exp
	case proto.RedReady:
		return &r.G.red[s].ready
	}
	return &r.G.red[s].done
}

func (m *rankMem) Set(r *proto.Role[*groupCtl], f proto.Flag, v uint64) { flag(r, f, r.Slot).set(v) }

func (m *rankMem) WaitGE(r *proto.Role[*groupCtl], f proto.Flag, v uint64) uint64 {
	return m.c.wait(flag(r, f, r.Slot), v, m.rank, opBudget(r.G.spinBudget, m.bytes))
}

func (m *rankMem) WaitSlot(r *proto.Role[*groupCtl], f proto.Flag, s int, v uint64) {
	m.c.wait(flag(r, f, s), v, m.rank, opBudget(r.G.spinBudget, m.bytes))
}

func (m *rankMem) WaitSlots(r *proto.Role[*groupCtl], f proto.Flag, want []uint64) {
	for s, v := range want {
		if v != 0 {
			m.WaitSlot(r, f, s, v)
		}
	}
}

func (m *rankMem) Load(r *proto.Role[*groupCtl], f proto.Flag, s int) uint64 {
	return flag(r, f, s).load()
}

// Stall waits for the leader loop's first unmet need instead of polling:
// one wake per need, since a parked waiter sleeps through the stores that
// fall short of its value (flagLine.set).
func (m *rankMem) Stall(r *proto.Role[*groupCtl], f proto.Flag, s int, v uint64) {
	m.WaitSlot(r, f, s, v)
}

func (m *rankMem) WaitAll(r *proto.Role[*groupCtl], v uint64) {
	ctl := r.G
	budget := opBudget(ctl.spinBudget, m.bytes)
	for s := range ctl.acks {
		if s != r.Slot {
			m.c.wait(&ctl.acks[s], v, m.rank, budget)
		}
	}
}

func (m *rankMem) Expose(r *proto.Role[*groupCtl], buf []byte, off int, first uint64) {
	r.G.exposed = buf[off:]
	r.G.fuseFirst = first
}

func (m *rankMem) Attach(r *proto.Role[*groupCtl]) ([]byte, int, uint64) {
	return r.G.exposed, 0, r.G.fuseFirst
}

func (m *rankMem) Release(*proto.Role[*groupCtl]) {}

func (m *rankMem) Copy(dst []byte, doff int, src []byte, soff, n int) {
	copy(dst[doff:doff+n], src[soff:soff+n])
}

func (m *rankMem) CICO(rank int) ([]byte, int) { return m.c.cico[rank], cicoBytes }

func (m *rankMem) CICOMax() int { return cicoBytes }

func (m *rankMem) Chunk(int) int { return m.c.cfg.ChunkBytes }

// FuseStage returns the rank's grow-only fused-batch staging buffer,
// grown to the next power of two so mixed batch shapes settle.
func (m *rankMem) FuseStage(n int) []byte {
	stg := m.c.fuse[m.rank]
	if cap(stg) < n {
		sz := 1
		for sz < n {
			sz <<= 1
		}
		stg = make([]byte, sz)
		m.c.fuse[m.rank] = stg
	}
	return stg[:cap(stg)]
}

func (m *rankMem) Mark(level int, ph proto.Phase, bytes int64) {
	m.wc.Mark(level, obs.Phase(ph), bytes)
}

func (m *rankMem) MarkFrom(level int, ph proto.Phase, bytes int64, from int) {
	m.wc.MarkFrom(level, obs.Phase(ph), bytes, from)
}

func (m *rankMem) Pull(int, int) {}

func (m *rankMem) Chaos() *proto.Chaos { return &m.c.chaos }

func (m *rankMem) Contribute(r *proto.Role[*groupCtl], buf []byte, acc bool) {
	if acc {
		r.G.acc = buf
		return
	}
	r.G.red[r.Slot].buf = buf
}

func (m *rankMem) AttachRed(r *proto.Role[*groupCtl], s int) []byte {
	if s == proto.Acc {
		return r.G.acc
	}
	return r.G.red[s].buf
}

// Fold runs the unrolled kernels over one chunk: the first reducer's fold
// also seeds the chunk from the leader's contribution (vecReduceTo), so
// the fold order is leader, then reducers in order. The CICO fold is in
// place in the leader's slot.
func (m *rankMem) Fold(r *proto.Role[*groupCtl], off, n int, cico bool) {
	ctl, op, rs := r.G, m.op, r.Reducers
	chunk := func(s int) []float64 {
		if cico {
			return asFloats(m.c.cico[ctl.members[s]][off : off+n])
		}
		return asFloats(ctl.red[s].buf[off : off+n])
	}
	acc := chunk(ctl.leaderSlot)
	if !cico {
		acc = asFloats(ctl.acc[off : off+n])
		vecReduceTo(op, acc, chunk(ctl.leaderSlot), chunk(rs[0]))
		rs = rs[1:]
	}
	for _, s := range rs {
		vecReduce(op, acc, chunk(s))
	}
}

// The reduction's tuning: core's defaults for the least slices, and the
// sole-reducer rule.
const (
	redMinSlice  = 2 << 10
	cicoMinSlice = 128
)

func (m *rankMem) Reduction() proto.Reduction {
	return proto.Reduction{MinSlice: redMinSlice, CICOMinSlice: cicoMinSlice, SoleWrites: true}
}

// AllreduceFloat64 sums src element-wise across all participants into
// every participant's dst (len(dst) == len(src) everywhere). The reduction
// is hierarchical with index partitioning among group members.
func (c *Comm) AllreduceFloat64(rank int, dst, src []float64) {
	c.AllreduceFloat64Op(rank, dst, src, OpSum)
}

// AllreduceFloat64Op is AllreduceFloat64 with an explicit element-wise op
// (sum, min or max — see ReduceOp).
func (c *Comm) AllreduceFloat64Op(rank int, dst, src []float64, op ReduceOp) {
	c.checkReduce(rank, dst, src, 0, true)
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindAllreduce, nil, nil, dst, src, 0, op), false).Wait()
		return
	}
	c.reduceFloat64(rank, dst, src, 0, true, op)
}

// ReduceFloat64 sums src element-wise across all participants into root's
// dst only. Non-root ranks' dst arguments are ignored (internal scratch
// accumulators are used at non-root leaders), but every rank must pass a
// src of the same length.
func (c *Comm) ReduceFloat64(rank int, dst, src []float64, root int) {
	c.ReduceFloat64Op(rank, dst, src, root, OpSum)
}

// ReduceFloat64Op is ReduceFloat64 with an explicit element-wise op.
func (c *Comm) ReduceFloat64Op(rank int, dst, src []float64, root int, op ReduceOp) {
	c.checkReduce(rank, dst, src, root, false)
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindReduce, nil, nil, dst, src, root, op), false).Wait()
		return
	}
	c.reduceFloat64(rank, dst, src, root, false, op)
}

// reduceFloat64 is the shared body of AllreduceFloat64/ReduceFloat64,
// called inline or from the rank's request worker: the shared reduction
// (proto.Allreduce) toward the top leader, which is root since the
// hierarchy is root-following, on byte views of the float64 buffers.
func (c *Comm) reduceFloat64(rank int, dst, src []float64, root int, bcast bool, op ReduceOp) {
	st, _ := c.stateFor(root)
	v := &c.views[rank]
	v.opSeq++
	n := len(src) * 8
	v.lastBytes = n
	opCode := obs.OpAllreduce
	if !bcast {
		opCode = obs.OpReduce
	}
	wc := c.clocks.Start(rank, opCode, v.opSeq, int64(n), st.h.NLevels())
	p := &st.plans[rank]
	// The accumulator of a leader is its result buffer: dst for allreduce
	// (and for the root in reduce); internal scratch otherwise. Scratch is
	// reused by capacity and grown to the next power of two, so a mixed-size
	// op sequence settles instead of reallocating on every size increase.
	acc := dst
	if !bcast && rank != root && len(p.Lead) > 0 {
		s := c.scratch[rank]
		if cap(s) < len(src) {
			sz := 1
			for sz < len(src) {
				sz <<= 1
			}
			s = make([]float64, sz)
			c.scratch[rank] = s
		}
		acc = s[:len(src)]
	}
	m := c.mem(rank, wc, n)
	m.op = op
	proto.Allreduce(m, p, v.opSeq, v.cum[:], asBytes(src), asBytes(acc), asBytes(dst), n, 8, bcast)
	wc.Finish()
}

// asBytes views a float64 slice as its bytes, so the shared protocol's
// offsets are bytes on both backends; asFloats is the inverse, for
// 8-aligned views at element offsets.
func asBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

func asFloats(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// Barrier blocks until every participant has arrived.
func (c *Comm) Barrier(rank int) {
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindBarrier, nil, nil, nil, nil, 0, 0), false).Wait()
		return
	}
	c.barrier(rank)
}

// barrier is Barrier's body, called inline or from the rank's request
// worker.
func (c *Comm) barrier(rank int) {
	st, _ := c.stateFor(0)
	v := &c.views[rank]
	v.opSeq++
	wc := c.clocks.Start(rank, obs.OpBarrier, v.opSeq, 0, st.h.NLevels())
	c.barrierBody(st, v, rank, wc)
	wc.Finish()
}

// barrierBody is the shared hierarchical arrival/release round
// (proto.Barrier). Used by Barrier and as Allgather's exit synchronization (no participant may return — and reuse
// its exposed contribution — before every other participant has read it).
func (c *Comm) barrierBody(st *state, v *viewSlot, rank int, wc *obs.OpClock) {
	proto.Barrier(c.mem(rank, wc, v.lastBytes), &st.plans[rank], v.opSeq, v.cum[:])
}

// Allgather concatenates every participant's in block into each
// participant's out buffer in rank order (len(out) == N*len(in), with equal
// block lengths everywhere). Each participant exposes its block and copies
// every peer's block directly; the op ends with barrier semantics so no
// participant can republish (or let its caller reuse) a block that a slower
// peer is still reading.
func (c *Comm) Allgather(rank int, in, out []byte) {
	c.checkAllgather(in, out)
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindAllgather, in, out, nil, nil, 0, 0), false).Wait()
		return
	}
	c.allgather(rank, in, out)
}

// allgather is Allgather's body, called inline or from the rank's request
// worker.
func (c *Comm) allgather(rank int, in, out []byte) {
	blockLen := len(in)
	st, _ := c.stateFor(0)
	v := &c.views[rank]
	v.opSeq++
	seq := v.opSeq
	v.lastBytes = blockLen * c.n
	wc := c.clocks.Start(rank, obs.OpAllgather, seq, int64(blockLen), st.h.NLevels())

	c.ag[rank].blk = in
	c.ag[rank].seq.set(seq)
	wc.Mark(-1, obs.PhaseExpose, 0)
	for r := 0; r < c.n; r++ {
		if r == rank {
			copy(out[blockLen*r:blockLen*(r+1)], in)
			continue
		}
		c.wait(&c.ag[r].seq, seq, rank, opBudget(c.agBudget, blockLen))
		copy(out[blockLen*r:blockLen*(r+1)], c.ag[r].blk)
	}
	wc.Mark(-1, obs.PhaseChunkCopy, int64(blockLen*c.n))
	c.barrierBody(st, v, rank, wc)
	wc.Finish()
}

// Scatter distributes blockLen-byte blocks from root's in buffer (N
// consecutive blocks in rank order, only meaningful at root) to each
// participant's out (proto.Scatter): small blocks through the root's CICO
// slot, larger ones straight from the exposed in. The hierarchical ack
// keeps root from returning — and its caller from reusing in — before
// every block has been pulled.
func (c *Comm) Scatter(rank int, in, out []byte, root int) {
	c.checkScatter(rank, in, out, root)
	if c.nb[rank].Gated() {
		c.issue(c.newReq(rank, proto.KindScatter, in, out, nil, nil, root, 0), false).Wait()
		return
	}
	c.scatter(rank, in, out, root)
}

// scatter is Scatter's body, called inline or from the rank's request
// worker.
func (c *Comm) scatter(rank int, in, out []byte, root int) {
	st, _ := c.stateFor(root)
	v := &c.views[rank]
	v.opSeq++
	blockLen := len(out)
	v.lastBytes = blockLen
	wc := c.clocks.Start(rank, obs.OpScatter, v.opSeq, int64(blockLen), st.h.NLevels())
	proto.Scatter(c.mem(rank, wc, blockLen), &st.plans[rank], v.opSeq, in, out, blockLen)
	wc.Finish()
}

// The argument checks run in the public calls, on the caller's goroutine
// before any flag is touched: a rejected call panics in the offending
// rank, where it can be recovered, and reaches no worker and no peer.

func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= c.n {
		panic(fmt.Sprintf("gxhc: root %d out of range [0,%d)", root, c.n))
	}
}

// checkReduce requires a result buffer as long as src on every rank of an
// allreduce and on a reduce's root.
func (c *Comm) checkReduce(rank int, dst, src []float64, root int, bcast bool) {
	c.checkRoot(root)
	if (bcast || rank == root) && len(dst) != len(src) {
		panic(fmt.Sprintf("gxhc: dst length %d, src length %d", len(dst), len(src)))
	}
}

func (c *Comm) checkAllgather(in, out []byte) {
	if len(out) != len(in)*c.n {
		panic(fmt.Sprintf("gxhc: allgather out length %d, want %d", len(out), len(in)*c.n))
	}
}

func (c *Comm) checkScatter(rank int, in, out []byte, root int) {
	c.checkRoot(root)
	if rank == root && len(in) != len(out)*c.n {
		panic(fmt.Sprintf("gxhc: scatter in length %d, want %d", len(in), len(out)*c.n))
	}
}
