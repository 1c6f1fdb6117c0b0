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
// (Bcast, its CICO path below 1 KiB, fused Ibcast batches, the
// subtree-first acks and the barrier round) is package proto's, shared
// with core; gxhc supplies its real-memory layer (rankMem).
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
	// verify harness's mutation self-test (see ChaosConfig).
	Chaos *ChaosConfig
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
	// ranks that lead a group stage). fuseMax is the normalized fusion
	// threshold from Config.FuseBytes.
	fuse    [][]byte
	fuseMax int
	// cico[r] is rank r's two-slot copy-in-copy-out buffer for small
	// broadcasts; mems[r] is its shared-protocol handle, and mut the
	// protocol's view of Config.Chaos.
	cico [][]byte
	mems []rankMem
	mut  proto.Mutants
	// inflight counts non-blocking requests issued but not yet completed,
	// across all ranks (the requests.max_inflight gauge's source).
	inflight atomic.Int64
	// ag[r] exposes rank r's allgather contribution block; the op ends
	// with barrier semantics, so a single slot per rank suffices.
	ag []agSlot

	// trace, when enabled, records per-participant phase spans on wall
	// time. Nil by default; every instrumentation point nil-checks it, so
	// the untraced path costs one pointer comparison per collective.
	trace *obs.Tracer
	// rec, when attached, receives one FlightRecord per (participant,
	// collective) — the wall-clock mirror of core's flight wiring. wcs is
	// the per-participant pool of segment clocks (each participant runs
	// one collective at a time, so recording stays allocation-free).
	rec *obs.OpRecorder
	wcs []wallClock
	// clk is the instrumentation clock, resolved once when trace/rec is
	// attached (trace clock, then recorder clock, then a wall-clock
	// closure) — never per op, so the instrumented path stays alloc-free.
	clk func() int64
}

// resolveClock picks the instrumentation clock once; callers hold c.mu.
func (c *Comm) resolveClock() {
	switch {
	case c.trace != nil:
		c.clk = c.trace.Now
	case c.rec != nil && c.rec.Now != nil:
		c.clk = c.rec.Now
	default:
		c.clk = obs.WallClock()
	}
}

// EnableTrace attaches a wall-time span tracer (one lane per participant)
// and returns it. Call it before spawning participant goroutines; the
// clock starts at the call. Repeated calls return the same tracer.
func (c *Comm) EnableTrace() *obs.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trace == nil {
		c.trace = obs.NewTracer("gxhc", 0, c.n, obs.WallTicksPerUS, obs.WallClock())
	}
	if c.wcs == nil {
		c.wcs = make([]wallClock, c.n)
	}
	c.resolveClock()
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
	if c.wcs == nil {
		c.wcs = make([]wallClock, c.n)
	}
	c.resolveClock()
}

// wallClock is gxhc's segment clock, the wall-time mirror of core's
// phaseClock: consecutive marks partition one collective into phase spans,
// and finish commits the operation's flight record when a recorder is
// attached. A nil receiver is a no-op, so uninstrumented runs take no
// extra branches beyond the constructor's nil checks.
type wallClock struct {
	t   *obs.Tracer
	rec *obs.OpRecorder
	clk func() int64

	lane  int
	op    obs.OpCode
	seq   uint64
	bytes int64
	lvls  uint8
	chnks uint16

	start int64
	last  int64
	durs  [obs.NPhases]int64
}

func (c *Comm) newWallClock(rank int, op obs.OpCode, seq uint64, bytes int64, levels int) *wallClock {
	if c.trace == nil && c.rec == nil {
		return nil
	}
	clk := c.clk
	var wc *wallClock
	if c.wcs != nil {
		wc = &c.wcs[rank]
	} else {
		wc = &wallClock{}
	}
	now := clk()
	*wc = wallClock{
		t: c.trace, rec: c.rec, clk: clk,
		lane: rank, op: op, seq: seq, bytes: bytes, lvls: uint8(levels),
		start: now, last: now,
	}
	return wc
}

func (wc *wallClock) mark(level int, ph obs.Phase, bytes int64) {
	wc.markFrom(level, ph, bytes, -1)
}

// markFrom is mark with an explicit causal parent lane — wait segments
// pass the rank whose flag write released this one (see phaseClock).
func (wc *wallClock) markFrom(level int, ph obs.Phase, bytes int64, from int) {
	if wc == nil {
		return
	}
	now := wc.clk()
	if now > wc.last {
		wc.durs[ph] += now - wc.last
		if wc.t != nil {
			wc.t.RecordLinked(wc.lane, level, ph, wc.op.String(), wc.seq, wc.last, now, bytes, from)
		}
	}
	if ph == obs.PhaseChunkCopy && bytes > 0 && wc.chnks < ^uint16(0) {
		wc.chnks++
	}
	wc.last = now
}

// finish closes the op umbrella at the last mark, not at a fresh clock
// read: every op body ends with a mark, so the phase spans partition
// [start, End] exactly and per-edge blame sums to the op's latency, as in
// virtual time.
func (wc *wallClock) finish() {
	if wc == nil {
		return
	}
	if wc.t != nil {
		wc.t.Record(wc.lane, -1, obs.PhaseCollective, wc.op.String(), wc.seq, wc.start, wc.last, wc.bytes)
	}
	if wc.rec != nil {
		wc.rec.RecordFlight(obs.FlightRecord{
			Seq: wc.seq, Start: wc.start, End: wc.last, Bytes: wc.bytes,
			Phase: wc.durs, Lane: int32(wc.lane), Chunks: wc.chnks,
			Levels: wc.lvls, Op: wc.op,
		})
	}
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

// contribSlot holds one member's exposed contribution slice, padded to a
// full line — each slot has exactly one writer (its member), publication
// rides on the member's red flag.
type contribSlot struct {
	f []float64
	_ [cacheLine - 24]byte
}

// groupCtl is the shared control block of one hierarchy group. All mutable
// state is either a single-writer flagLine or a plain field published by
// one (exposed/exposedF by expSeq, contrib[s] by red[s]): every writer
// owns its cache line, so the ack/ready/expose phases do padded array
// loads — no map lookups, no false sharing, no read-modify-write.
type groupCtl struct {
	leader     int
	leaderSlot int
	members    []int32
	// spinBudget is spinBudget(len(members)): waits on this group's
	// flags stay in the yielding spin phase longer the smaller the group.
	spinBudget int
	// exposed holds the leader's current buffer ([]byte for Bcast and
	// Scatter, exposedF for float64 reductions), published by expSeq.
	exposed  []byte
	exposedF []float64
	// fuseFirst is the first sub-op seq of the leader's current fused
	// broadcast batch: exposed[(q-fuseFirst)*n:] holds sub-op q's payload.
	// Plain field published by expSeq, frozen (with the staging it
	// describes) until every member has acked the batch's last sub-op.
	fuseFirst uint64
	_         [24]byte // start the flag lines on a fresh cache line
	// ready is the leader-owned published-bytes counter (single writer).
	ready flagLine
	// expSeq announces the exposure sequence.
	expSeq flagLine
	// acks[s] is member slot s's completed-op counter (single writer each).
	acks []flagLine
	// red[s] is member slot s's reduction progress counter (phase counter:
	// 2k = contribution ready, 2k+1 = slice done).
	red []flagLine
	// contrib[s] holds member slot s's exposed contribution slice.
	contrib []contribSlot
}

// rankPlan is a rank's shared protocol plan (which groups it leads,
// innermost first, and where it pulls from as a plain member, with its
// slot in each) plus what only gxhc's reduction needs: its leaf role and
// its index partition among the pull group's reducers. Collectives never
// walk the hierarchy, consult a map, or allocate.
type rankPlan struct {
	proto.Plan[*groupCtl]
	leaf proto.Role[*groupCtl] // role at level 0 (Lead[0] or Pull)
	// redIdx/redCnt partition [0,n) among the pull group's non-leader
	// members for the reduction share.
	redIdx, redCnt int
}

type state struct {
	h         *hier.Hierarchy
	groups    [][]*groupCtl
	plans     []rankPlan
	top       *groupCtl // top-level group (carries Scatter's exposure)
	topLeader int
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
	for r := range c.nb {
		c.nb[r].q = make(chan *Request, nbQueueCap)
	}
	c.fuse = make([][]byte, n)
	c.cico = make([][]byte, n)
	c.mems = make([]rankMem, n)
	for r := range c.mems {
		c.cico[r] = make([]byte, 2*cicoBytes)
		c.mems[r] = rankMem{c: c, rank: r}
	}
	if ch := cfg.Chaos; ch != nil {
		c.mut = proto.Mutants{StaleReady: ch.StaleReady, FuseCorrupt: ch.FuseCorrupt}
	}
	switch {
	case cfg.FuseBytes < 0:
		c.fuseMax = 0
	case cfg.FuseBytes == 0:
		c.fuseMax = defaultFuseBytes
	default:
		c.fuseMax = cfg.FuseBytes
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
	st := &state{h: h, topLeader: h.TopLeader()}
	for l := 0; l < h.NLevels(); l++ {
		var lvl []*groupCtl
		for gi := range h.GroupsAt(l) {
			g := &h.GroupsAt(l)[gi]
			ctl := &groupCtl{
				leader:     g.Leader,
				members:    make([]int32, len(g.Members)),
				spinBudget: spinBudget(len(g.Members)),
				acks:       make([]flagLine, len(g.Members)),
				red:        make([]flagLine, len(g.Members)),
				contrib:    make([]contribSlot, len(g.Members)),
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
	st.top = st.groups[h.NLevels()-1][0]
	st.plans = make([]rankPlan, c.n)
	for r, pp := range proto.Build(h, func(l, gi int) *groupCtl { return st.groups[l][gi] }) {
		p := &st.plans[r]
		p.Plan = pp
		if len(p.Lead) > 0 {
			p.leaf = p.Lead[0]
		} else {
			p.leaf = p.Pull
		}
		if !p.HasPull {
			continue
		}
		// Index partition among the group's non-leader members.
		for s := range p.Pull.G.members {
			if s == p.Pull.G.leaderSlot {
				continue
			}
			if s == p.Pull.Slot {
				p.redIdx = p.redCnt
			}
			p.redCnt++
		}
	}
	c.states[root].Store(st)
	return st, nil
}

// Bcast distributes root's buf contents to every participant's buf. All
// participants must pass equally sized buffers. While the rank has
// non-blocking requests in flight the call is ordered behind them through
// the request queue (request.go); otherwise it runs inline.
func (c *Comm) Bcast(rank int, buf []byte, root int) {
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqBcast, buf, nil, nil, nil, root, 0)
		return
	}
	c.bcast(rank, buf, root)
}

// bcast is Bcast's body, called inline or from the rank's request worker:
// the shared broadcast protocol (proto.Bcast) on real memory.
func (c *Comm) bcast(rank int, buf []byte, root int) {
	st, err := c.stateFor(root)
	if err != nil {
		panic(err)
	}
	v := &c.views[rank]
	v.opSeq++
	n := len(buf)
	v.lastBytes = n
	wc := c.newWallClock(rank, obs.OpBcast, v.opSeq, int64(n), st.h.NLevels())
	proto.Bcast(c.mem(rank, wc, n), &st.plans[rank].Plan, v.opSeq, v.cum[:], buf, 0, n)
	wc.finish()
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
	wc    *wallClock
	bytes int
	_     [cacheLine - 32]byte
}

// mem points rank's protocol handle at the op it is about to run.
func (c *Comm) mem(rank int, wc *wallClock, bytes int) *rankMem {
	m := &c.mems[rank]
	m.wc, m.bytes = wc, bytes
	return m
}

func (m *rankMem) flag(r *proto.Role[*groupCtl], f proto.Flag) *flagLine {
	switch f {
	case proto.Exp:
		return &r.G.expSeq
	case proto.Ready:
		return &r.G.ready
	}
	return &r.G.acks[r.Slot]
}

func (m *rankMem) Set(r *proto.Role[*groupCtl], f proto.Flag, v uint64) { m.flag(r, f).set(v) }

func (m *rankMem) WaitGE(r *proto.Role[*groupCtl], f proto.Flag, v uint64) uint64 {
	return m.c.wait(m.flag(r, f), v, m.rank, opBudget(r.G.spinBudget, m.bytes))
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
	m.wc.mark(level, obs.Phase(ph), bytes)
}

func (m *rankMem) MarkFrom(level int, ph proto.Phase, bytes int64, from int) {
	m.wc.markFrom(level, obs.Phase(ph), bytes, from)
}

func (m *rankMem) Pull(int, int) {}

func (m *rankMem) Mutants() proto.Mutants { return m.c.mut }

// AllreduceFloat64 sums src element-wise across all participants into
// every participant's dst (len(dst) == len(src) everywhere). The reduction
// is hierarchical with index partitioning among group members.
func (c *Comm) AllreduceFloat64(rank int, dst, src []float64) {
	c.AllreduceFloat64Op(rank, dst, src, OpSum)
}

// AllreduceFloat64Op is AllreduceFloat64 with an explicit element-wise op
// (sum, min or max — see ReduceOp).
func (c *Comm) AllreduceFloat64Op(rank int, dst, src []float64, op ReduceOp) {
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqAllreduce, nil, nil, dst, src, 0, op)
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
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqReduce, nil, nil, dst, src, root, op)
		return
	}
	c.reduceFloat64(rank, dst, src, root, false, op)
}

// reduceFloat64 is the shared body of AllreduceFloat64/ReduceFloat64: a
// hierarchical index-partitioned reduction toward the top leader (which is
// root, since the hierarchy is root-following), optionally followed by the
// pull-based broadcast of the result.
func (c *Comm) reduceFloat64(rank int, dst, src []float64, root int, bcast bool, op ReduceOp) {
	if bcast && len(dst) != len(src) {
		panic("gxhc: dst/src length mismatch")
	}
	st, err := c.stateFor(root)
	if err != nil {
		panic(err)
	}
	v := &c.views[rank]
	v.opSeq++
	seq := v.opSeq
	n := len(src)
	v.lastBytes = n * 8
	opCode := obs.OpAllreduce
	if !bcast {
		opCode = obs.OpReduce
	}
	wc := c.newWallClock(rank, opCode, seq, int64(n)*8, st.h.NLevels())
	p := &st.plans[rank]

	// The accumulator of a leader is its result buffer: dst for allreduce
	// (and for the root in reduce); internal scratch otherwise. Scratch is
	// reused by capacity and grown to the next power of two, so a mixed-size
	// op sequence settles instead of reallocating on every size increase.
	acc := dst
	if !bcast && rank != root && len(p.Lead) > 0 {
		s := c.scratch[rank]
		if cap(s) < n {
			sz := 1
			for sz < n {
				sz <<= 1
			}
			s = make([]float64, sz)
			c.scratch[rank] = s
		}
		acc = s[:n]
	}

	// Expose contributions: src at the leaf level, acc (accumulator) above.
	// Contribution slices and the leader accumulator are plain fields,
	// published by the red/expSeq flag stores below.
	if p.HasPull {
		cs := &p.Pull.G.contrib[p.Pull.Slot]
		if p.Pull.Level == 0 {
			cs.f = src
		} else {
			cs.f = acc
		}
	}
	for i := range p.Lead {
		lr := &p.Lead[i]
		cs := &lr.G.contrib[lr.Slot]
		if lr.Level == 0 {
			cs.f = src
		} else {
			cs.f = acc
		}
		lr.G.exposedF = acc // accumulator for reducers
		lr.G.expSeq.set(seq)
	}
	// Leaf contributions are ready immediately.
	p.leaf.G.red[p.leaf.Slot].set(seq * 2) // phase counter: 2k = ready
	wc.mark(-1, obs.PhaseExpose, 0)

	// Bottom-up walk. A rank first completes its duties as a leader of
	// the levels below (wait for the group's reducers, then publish its
	// own contribution readiness one level up), and only then performs
	// its reduction share at its pull level — mirroring the dependency
	// order of the simulated implementation.
	for i := range p.Lead {
		lr := &p.Lead[i]
		if lr.Level == 0 && len(lr.G.members) == 1 {
			// Singleton leaf group: the accumulator takes the leader's own
			// contribution directly.
			copy(acc, src)
		}
		for s := range lr.G.red {
			if s != lr.Slot {
				c.wait(&lr.G.red[s], seq*2+1, rank, opBudget(lr.G.spinBudget, n*8))
			}
		}
		if i+1 < len(p.Lead) {
			up := &p.Lead[i+1]
			up.G.red[up.Slot].set(seq * 2)
		} else if p.HasPull {
			p.Pull.G.red[p.Pull.Slot].set(seq * 2)
		}
	}
	wc.mark(-1, obs.PhaseFlagWait, 0)
	// A sole top-group reducer of an allreduce (its slice is the whole
	// vector) computes the final result itself: it writes each finished
	// block straight into its own dst and skips the result pull (sole).
	sole := false
	if p.HasPull {
		ctl := p.Pull.G
		// Reduce this rank's index partition of [0,n) into the leader's
		// accumulator.
		lo := n * p.redIdx / p.redCnt
		hi := n * (p.redIdx + 1) / p.redCnt
		var out []float64
		if bcast && ctl == st.top && ((lo == 0 && hi == n) || (c.cfg.Chaos != nil && c.cfg.Chaos.SkipResultPull)) {
			out = dst
			sole = true
		}
		if hi > lo {
			c.wait(&ctl.expSeq, seq, rank, opBudget(ctl.spinBudget, n*8))
			// Wait for every member's contribution to be ready.
			for s := range ctl.red {
				c.wait(&ctl.red[s], seq*2, rank, opBudget(ctl.spinBudget, n*8))
			}
			wc.mark(p.Pull.Level, obs.PhaseFlagWait, 0)
			c.reduceSlice(ctl, op, lo, hi, out)
			wc.mark(p.Pull.Level, obs.PhaseReduceSlice, int64(hi-lo)*8)
		}
		// Signal slice completion (phase 2k+1).
		ctl.red[p.Pull.Slot].set(seq*2 + 1)
	}

	// Broadcast the result from the top leader (rank 0's dst for allreduce;
	// a rooted reduce skips the distribution — and therefore leaves the
	// ready counters and their cum mirrors untouched).
	if bcast {
		if rank == st.topLeader {
			for i := range p.Lead {
				lr := &p.Lead[i]
				lr.G.ready.set(v.cum[lr.Level] + uint64(n))
			}
		} else if n > 0 {
			// n == 0 publishes nothing, so the ready counter cannot order this
			// pull against the leader's expose; skip it — there is no data.
			ctl := p.Pull.G
			if !sole {
				base := v.cum[p.Pull.Level]
				c.wait(&ctl.ready, base+uint64(n), rank, opBudget(ctl.spinBudget, n*8))
				wc.markFrom(p.Pull.Level, obs.PhaseFlagWait, 0, ctl.leader)
				final := ctl.exposedF
				if &dst[0] != &final[0] {
					copy(dst, final)
				}
			}
			for i := range p.Lead {
				lr := &p.Lead[i]
				lr.G.ready.set(v.cum[lr.Level] + uint64(n))
			}
			if !sole {
				wc.mark(p.Pull.Level, obs.PhaseChunkCopy, int64(n)*8)
			}
		}
	}

	// A rooted reduce has no broadcast release ordering a member's return
	// after the group fan-in: a sibling reducer may still be reading this
	// rank's contribution (src, or the scratch accumulator) when the caller
	// refills it for the next op. Hold until every co-reducer in the pull
	// group has finished its slice. Allreduce needs none of this — the
	// result broadcast already orders every return after the full fan-in.
	if !bcast && p.HasPull {
		ctl := p.Pull.G
		for s := range ctl.red {
			if s != p.Pull.Slot && s != ctl.leaderSlot {
				c.wait(&ctl.red[s], seq*2+1, rank, opBudget(ctl.spinBudget, n*8))
			}
		}
	}

	// Acknowledgment + counter advance.
	proto.AckPhase(c.mem(rank, wc, n*8), &p.Plan, seq)
	if bcast {
		for l := range v.cum {
			v.cum[l] += uint64(n)
		}
	}
	wc.finish()
}

// reduceSlice folds every member's contribution over [lo,hi) into the
// leader's accumulator, block by block: ChunkBytes/8 elements (at least
// one) at a time, the same granule as the broadcast pipeline. The first
// member's fold also seeds the block from the leader's contribution
// (vecReduceTo), so the fold order — leader, then members by slot — is
// unchanged and results stay bit-identical. With out non-nil (the sole
// reducer's final accumulator) each finished block is also copied into out
// while it is still cache-hot.
func (c *Comm) reduceSlice(ctl *groupCtl, op ReduceOp, lo, hi int, out []float64) {
	lacc := ctl.exposedF
	lead := ctl.contrib[ctl.leaderSlot].f
	first := 0 // the first non-leader member slot
	if ctl.leaderSlot == 0 {
		first = 1
	}
	step := max(c.cfg.ChunkBytes/8, 1)
	for b := lo; b < hi; b += step {
		e := min(b+step, hi)
		vecReduceTo(op, lacc[b:e], lead[b:e], ctl.contrib[first].f[b:e])
		for s := first + 1; s < len(ctl.contrib); s++ {
			if s != ctl.leaderSlot {
				vecReduce(op, lacc[b:e], ctl.contrib[s].f[b:e])
			}
		}
		if out != nil {
			copy(out[b:e], lacc[b:e])
		}
	}
}

// Barrier blocks until every participant has arrived.
func (c *Comm) Barrier(rank int) {
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqBarrier, nil, nil, nil, nil, 0, 0)
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
	wc := c.newWallClock(rank, obs.OpBarrier, v.opSeq, 0, st.h.NLevels())
	c.barrierBody(st, v, rank, wc)
	wc.finish()
}

// barrierBody is the shared hierarchical arrival/release round
// (proto.Barrier). Used by Barrier and as Allgather's exit synchronization (no participant may return — and reuse
// its exposed contribution — before every other participant has read it).
func (c *Comm) barrierBody(st *state, v *viewSlot, rank int, wc *wallClock) {
	proto.Barrier(c.mem(rank, wc, v.lastBytes), &st.plans[rank].Plan, v.opSeq, v.cum[:])
}

// Allgather concatenates every participant's in block into each
// participant's out buffer in rank order (len(out) == N*len(in), with equal
// block lengths everywhere). Each participant exposes its block and copies
// every peer's block directly; the op ends with barrier semantics so no
// participant can republish (or let its caller reuse) a block that a slower
// peer is still reading.
func (c *Comm) Allgather(rank int, in, out []byte) {
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqAllgather, in, out, nil, nil, 0, 0)
		return
	}
	c.allgather(rank, in, out)
}

// allgather is Allgather's body, called inline or from the rank's request
// worker.
func (c *Comm) allgather(rank int, in, out []byte) {
	blockLen := len(in)
	if len(out) != blockLen*c.n {
		panic(fmt.Sprintf("gxhc: allgather out length %d, want %d", len(out), blockLen*c.n))
	}
	st, _ := c.stateFor(0)
	v := &c.views[rank]
	v.opSeq++
	seq := v.opSeq
	v.lastBytes = blockLen * c.n
	wc := c.newWallClock(rank, obs.OpAllgather, seq, int64(blockLen), st.h.NLevels())

	c.ag[rank].blk = in
	c.ag[rank].seq.set(seq)
	wc.mark(-1, obs.PhaseExpose, 0)
	for r := 0; r < c.n; r++ {
		if r == rank {
			copy(out[blockLen*r:blockLen*(r+1)], in)
			continue
		}
		c.wait(&c.ag[r].seq, seq, rank, opBudget(c.agBudget, blockLen))
		copy(out[blockLen*r:blockLen*(r+1)], c.ag[r].blk)
	}
	wc.mark(-1, obs.PhaseChunkCopy, int64(blockLen*c.n))
	c.barrierBody(st, v, rank, wc)
	wc.finish()
}

// Scatter distributes blockLen-byte blocks from root's in buffer (N
// consecutive blocks in rank order, only meaningful at root) to each
// participant's out. The root's exposure rides on the top group's control
// block; the hierarchical ack keeps root from returning — and its caller
// from reusing in — before every block has been pulled.
func (c *Comm) Scatter(rank int, in, out []byte, root int) {
	if c.nb[rank].pending.Load() != 0 {
		c.issueBlocking(rank, reqScatter, in, out, nil, nil, root, 0)
		return
	}
	c.scatter(rank, in, out, root)
}

// scatter is Scatter's body, called inline or from the rank's request
// worker.
func (c *Comm) scatter(rank int, in, out []byte, root int) {
	st, err := c.stateFor(root)
	if err != nil {
		panic(err)
	}
	v := &c.views[rank]
	v.opSeq++
	seq := v.opSeq
	blockLen := len(out)
	v.lastBytes = blockLen
	wc := c.newWallClock(rank, obs.OpScatter, seq, int64(blockLen), st.h.NLevels())

	ctl := st.top // top group carries the exposure
	if rank == root {
		if len(in) != blockLen*c.n {
			panic(fmt.Sprintf("gxhc: scatter in length %d, want %d", len(in), blockLen*c.n))
		}
		ctl.exposed = in
		ctl.expSeq.set(seq)
		wc.mark(-1, obs.PhaseExpose, 0)
		copy(out, in[blockLen*root:blockLen*(root+1)])
	} else if blockLen > 0 {
		c.wait(&ctl.expSeq, seq, rank, opBudget(ctl.spinBudget, blockLen))
		wc.markFrom(-1, obs.PhaseFlagWait, 0, ctl.leader)
		src := ctl.exposed
		copy(out, src[blockLen*rank:blockLen*(rank+1)])
	}
	wc.mark(-1, obs.PhaseChunkCopy, int64(blockLen))

	// Hierarchical acknowledgment (converges to root, the top leader). The
	// exposure crosses group boundaries — every rank pulls from root's in —
	// and the subtree-ordered ack makes root's return proof that no rank
	// anywhere is still reading in.
	proto.AckPhase(c.mem(rank, wc, blockLen), &st.plans[rank].Plan, seq)
	wc.finish()
}
