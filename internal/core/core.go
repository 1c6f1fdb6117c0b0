// Package core implements XHC — the XPMEM-based Hierarchical Collectives
// framework that is the paper's contribution. A Comm organizes the ranks
// of a World into an n-level topology-aware hierarchy (package hier) and
// provides Broadcast, Allreduce, Reduce and Barrier with:
//
//   - single-copy data movement via (simulated) XPMEM with a registration
//     cache, for messages above the CICO threshold;
//   - a copy-in-copy-out shared-memory path below the threshold;
//   - pipelining with per-level configurable chunk sizes;
//   - single-writer/multiple-reader synchronization flags (no atomics).
package core

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/hier"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/shm"
	"xhc/internal/xpmem"
)

// FlagScheme selects how a leader signals per-chunk progress to its group
// members (the paper's Fig. 10 experiment).
type FlagScheme int

const (
	// SingleFlag: one leader-owned counter per group; all members read the
	// same cache line. XHC's actual design.
	SingleFlag FlagScheme = iota
	// MultiSharedLine: one counter per member, all packed into the same
	// cache line (still leader-owned).
	MultiSharedLine
	// MultiSeparateLines: one counter per member, each on its own cache
	// line. Defeats the implicit LLC sharing assistance.
	MultiSeparateLines
)

// String names the scheme.
func (f FlagScheme) String() string {
	switch f {
	case SingleFlag:
		return "single"
	case MultiSharedLine:
		return "multi-shared"
	case MultiSeparateLines:
		return "multi-separate"
	}
	return fmt.Sprintf("FlagScheme(%d)", int(f))
}

// Config tunes an XHC communicator.
type Config struct {
	// Sensitivity is the hierarchy specification (default numa+socket;
	// nil/empty means flat).
	Sensitivity hier.Sensitivity
	// CICOThreshold: operations with message size <= this use the
	// copy-in-copy-out path (paper default 1 KiB).
	CICOThreshold int
	// ChunkBytes is the pipelining granule per hierarchy level (indexed by
	// level; the last entry covers all deeper levels). Paper: run-time
	// configurable per level.
	ChunkBytes []int
	// CICOBytes is the size of each rank's shared CICO buffer.
	CICOBytes int
	// ReduceMinChunk is the minimum number of bytes one member takes on in
	// the intra-group reduction; with few elements only one member in each
	// group reduces (paper Section IV-B step 2a).
	ReduceMinChunk int
	// CICOMinReduce is the same minimum for the CICO path, where messages
	// are small and a finer partition still pays off.
	CICOMinReduce int
	// Flags selects the progress-flag placement (Fig. 10); default SingleFlag.
	Flags FlagScheme
	// RegCache enables the per-rank XPMEM registration cache.
	RegCache bool
	// Tag namespaces this communicator's shared control structures. Every
	// flag and internal buffer name carries the tag ("xhc.c[<tag>].…"), so
	// communicators with overlapping rank sets running concurrently on one
	// world never alias control lines — and the verify tracker can prove
	// it from the names alone (the bracketed form never collides with the
	// legacy names, whose first segment is bare). Empty (the default) keeps
	// the legacy un-namespaced names byte-identical.
	Tag string
	// Chaos, when non-nil, enables deliberate protocol mutations for the
	// verify harness's self-test (see ChaosConfig). Production code leaves
	// it nil.
	Chaos *ChaosConfig
}

// DefaultConfig returns the paper's defaults on the numa+socket hierarchy.
func DefaultConfig() Config {
	sens, _ := hier.ParseSensitivity("numa+socket")
	return Config{
		Sensitivity:    sens,
		CICOThreshold:  1 << 10,
		ChunkBytes:     []int{16 << 10},
		CICOBytes:      16 << 10,
		ReduceMinChunk: 2 << 10,
		CICOMinReduce:  128,
		Flags:          SingleFlag,
		RegCache:       true,
	}
}

// FlatConfig returns the XHC-flat variant of the evaluation.
func FlatConfig() Config {
	c := DefaultConfig()
	c.Sensitivity = nil
	return c
}

// Comm is an XHC communicator over all ranks of a world.
type Comm struct {
	W   *env.World
	Cfg Config

	caches []*xpmem.Cache // per-rank registration caches
	cico   []*mem.Buffer  // per-rank shared CICO buffers
	states map[int]*commState

	// OnPull, when set, observes every member<-leader data edge once per
	// operation (Table II accounting).
	OnPull func(from, to, bytes int)

	// Trace records per-rank phase spans when the world is observed with
	// tracing enabled; nil otherwise. Everything that consults it does so
	// through nil-checked helpers (phaseClock), so the disabled path costs
	// one pointer comparison per operation.
	Trace *obs.Tracer
	// obsPull mirrors OnPull for the observability registry. It is a
	// separate hook so experiments that install their own OnPull collector
	// after construction don't silence registry accounting (and vice versa).
	obsPull func(from, to, bytes int)
	// rec/obsClock/pcs back the always-on flight recorder: one pooled
	// phaseClock per rank (each rank runs one op at a time) feeding the
	// world's OpRecorder. All nil/empty when the world is unobserved.
	rec      *obs.OpRecorder
	obsClock func() int64
	pcs      []phaseClock

	scratch []*mem.Buffer              // per-rank internal accumulators for Reduce
	agFlags map[*commState][]*shm.Flag // allgather push-completion flags

	// mems[r] is rank r's handle for the shared broadcast protocol
	// (package proto); mut is the protocol's view of Chaos.
	mems []rankMem
	mut  proto.Mutants

	// Non-blocking request machinery (request.go): one lane per rank
	// holding the queue its helper proc drains, a per-rank staging buffer
	// for fused small-op batches, and the fusion size cap (CICOThreshold),
	// which also sizes those buffers.
	nb      []nbRank
	fuseBuf []*mem.Buffer
	fuseMax int
	// inflightCur counts this comm's currently outstanding requests
	// (plain: the simulation is cooperative).
	inflightCur int64

	// Ops counts completed collective operations.
	Ops int64
}

// name renders an internal flag/buffer name, namespaced by the
// communicator tag. The empty tag produces the historical "xhc.…" names
// byte-for-byte (replay fingerprints hash event sequences that depend on
// flag identity, so the default naming must not move).
func (c *Comm) name(format string, args ...any) string {
	if c.Cfg.Tag == "" {
		return fmt.Sprintf("xhc."+format, args...)
	}
	return fmt.Sprintf("xhc.c["+c.Cfg.Tag+"]."+format, args...)
}

// New creates an XHC communicator. Setup work (hierarchy construction,
// flag allocation, CICO segment attachment) happens at creation and
// charges no model time, matching the paper's exclusion of communicator
// creation from measurements.
func New(w *env.World, cfg Config) (*Comm, error) {
	if cfg.CICOThreshold < 0 {
		return nil, fmt.Errorf("core: negative CICO threshold")
	}
	if len(cfg.ChunkBytes) == 0 {
		cfg.ChunkBytes = []int{64 << 10}
	}
	for _, c := range cfg.ChunkBytes {
		if c <= 0 {
			return nil, fmt.Errorf("core: non-positive chunk size %d", c)
		}
	}
	if cfg.CICOBytes < cfg.CICOThreshold {
		cfg.CICOBytes = cfg.CICOThreshold * 2
	}
	if cfg.ReduceMinChunk <= 0 {
		cfg.ReduceMinChunk = 1
	}
	if cfg.CICOMinReduce <= 0 {
		cfg.CICOMinReduce = 128
	}
	c := &Comm{
		W:      w,
		Cfg:    cfg,
		states: make(map[int]*commState),
	}
	c.caches = make([]*xpmem.Cache, w.N)
	c.cico = make([]*mem.Buffer, w.N)
	c.scratch = make([]*mem.Buffer, w.N)
	c.nb = make([]nbRank, w.N)
	c.fuseBuf = make([]*mem.Buffer, w.N)
	c.fuseMax = cfg.CICOThreshold
	c.mems = make([]rankMem, w.N)
	if ch := cfg.Chaos; ch != nil {
		c.mut = proto.Mutants{
			EarlyReady:    ch.EarlyReady,
			SkipAck:       ch.SkipAck,
			AckRegression: ch.AckRegression,
			FuseCorrupt:   ch.FuseCorrupt,
		}
	}
	for r := 0; r < w.N; r++ {
		c.mems[r].c = c
		c.caches[r] = xpmem.NewCache(w.Sys, 0, cfg.RegCache)
		c.cico[r] = w.NewBufferAt(c.name("cico.%d", r), r, cfg.CICOBytes)
	}
	// Pre-build the root-0 hierarchy to validate the configuration.
	if _, err := c.stateForChecked(0); err != nil {
		return nil, err
	}
	if w.Obs != nil {
		c.Trace = w.Obs.Tracer
		c.obsPull = w.Obs.RecordPull
		c.rec = w.Obs.Rec
		c.obsClock = w.Obs.Rec.Now
		c.pcs = make([]phaseClock, w.N)
		if c.chaos() != (ChaosConfig{}) {
			c.rec.CountFault(obs.FaultChaos)
		}
		w.OnObsFlush(func(wo *obs.World) {
			for _, ca := range c.caches {
				wo.AddCacheStats(ca.Stats())
			}
			wo.AddOps(c.Ops)
		})
	}
	return c, nil
}

// recordPull fires both pull observers (experiment collector and registry).
func (c *Comm) recordPull(from, to, n int) {
	if c.OnPull != nil {
		c.OnPull(from, to, n)
	}
	if c.obsPull != nil {
		c.obsPull(from, to, n)
	}
}

// Split derives a communicator over a subset of this communicator's ranks
// (MPI_Comm_split with one surviving color): the child runs on an
// env.Subset world sharing the parent's engine and memory system, under a
// fresh tag that namespaces every control flag and internal buffer — so
// parent and child (or two overlapping children) can run collectives
// concurrently without ever touching the same control lines. The tag must
// be non-empty and unique among communicators sharing the world.
func (c *Comm) Split(ranks []int, tag string) (*Comm, error) {
	if tag == "" {
		return nil, fmt.Errorf("core: split requires a non-empty tag (flag namespace)")
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("core: empty split")
	}
	cfg := c.Cfg
	cfg.Tag = tag
	return New(c.W.Subset(ranks), cfg)
}

// MustNew panics on configuration errors.
func MustNew(w *env.World, cfg Config) *Comm {
	c, err := New(w, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Cache returns rank's registration cache (hit-ratio reporting).
func (c *Comm) Cache(rank int) *xpmem.Cache { return c.caches[rank] }

// Hierarchy returns the hierarchy used for the given root.
func (c *Comm) Hierarchy(root int) *hier.Hierarchy { return c.stateFor(root).h }

// chunkAt returns the pipelining granule for a hierarchy level.
func (c *Comm) chunkAt(level int) int {
	if level < len(c.Cfg.ChunkBytes) {
		return c.Cfg.ChunkBytes[level]
	}
	return c.Cfg.ChunkBytes[len(c.Cfg.ChunkBytes)-1]
}

// commState is the per-root bundle of hierarchy and shared control
// structures. XHC elects the root leader of every group it belongs to, so
// each distinct root needs its own (lazily created, cached) bundle.
type commState struct {
	root   int
	h      *hier.Hierarchy
	groups [][]*groupState           // [level][groupIndex]
	plans  []proto.Plan[*groupState] // per-rank lead/pull roles
	views  []*rankView               // per-rank local mirrors of cumulative counters
}

// groupState is the shared-memory control block of one hierarchy group.
type groupState struct {
	g      *hier.Group
	leader int

	// ready is the leader-owned cumulative byte counter announcing how
	// many bytes are available in the leader's buffer (SingleFlag scheme).
	ready *shm.Flag
	// memberReady replaces ready under the multi-flag schemes of Fig. 10.
	memberReady map[int]*shm.Flag
	// expSeq announces (by op sequence) that the leader's buffer handle
	// has been published in exposed.
	expSeq     *shm.Flag
	exposed    xpmem.Handle
	exposedOff int
	// fuseFirst is the op sequence of the first sub-op in the leader's
	// currently exposed fused-broadcast batch: sub-op q of the batch sits at
	// offset (q-fuseFirst)*n in the exposed staging buffer. Written by the
	// leader only while no member is mid-batch (the trailing ack wait of the
	// fused protocol freezes it); plain because the simulation is
	// cooperative. See request.go.
	fuseFirst uint64
	// acks[m] is member m's cumulative completed-op counter; ackWait
	// lists the non-leader members' ack flags in member order (what the
	// leader collects at the end of every op).
	acks    map[int]*shm.Flag
	ackWait []*shm.Flag

	// Allreduce state:
	// redReady[m] is member m's cumulative counter of contribution bytes
	// available for reduction (owner m).
	redReady map[int]*shm.Flag
	// redDone[m] is member m's cumulative counter of bytes it has reduced
	// into the leader's accumulation buffer (owner m).
	redDone map[int]*shm.Flag
	// redExpSeq/redExposed publish each member's contribution buffer.
	redExpSeq     map[int]*shm.Flag
	redExposed    map[int]xpmem.Handle
	redExposedOff map[int]int
	// accExpSeq/accExposed publish the leader's accumulation buffer.
	accExpSeq     *shm.Flag
	accExposed    xpmem.Handle
	accExposedOff int
}

// rankView is one rank's local mirror of the monotonic shared counters.
// Because every rank executes the same operation sequence, all views stay
// consistent without communication.
type rankView struct {
	rank     int
	opSeq    uint64
	cumBytes []uint64 // broadcast availability base, per level
	redCum   []uint64 // reduce contribution-availability base, per level
	// redDoneB mirrors the cumulative reduce_done counter of each member
	// this rank interacts with: [level][member] -> base value.
	redDoneB []map[int]uint64
}

// redDoneBase returns this rank's own reduce_done base at a level.
func (v *rankView) redDoneBase(level int) uint64 { return v.redDoneBaseOf(level, v.rank) }

// redDoneBaseOf returns member m's reduce_done base at a level.
func (v *rankView) redDoneBaseOf(level, m int) uint64 {
	if v.redDoneB[level] == nil {
		return 0
	}
	return v.redDoneB[level][m]
}

// bumpRedDone advances member m's mirrored base after an operation.
func (v *rankView) bumpRedDone(level, m int, d uint64) {
	if v.redDoneB[level] == nil {
		v.redDoneB[level] = make(map[int]uint64)
	}
	v.redDoneB[level][m] += d
}

func (c *Comm) stateFor(root int) *commState {
	st, err := c.stateForChecked(root)
	if err != nil {
		panic(err)
	}
	return st
}

func (c *Comm) stateForChecked(root int) (*commState, error) {
	if st, ok := c.states[root]; ok {
		return st, nil
	}
	h, err := hier.Build(c.W.Topo, c.W.Map, c.Cfg.Sensitivity, root)
	if err != nil {
		return nil, err
	}
	st := &commState{root: root, h: h}
	for l := 0; l < h.NLevels(); l++ {
		var lvl []*groupState
		for gi := range h.GroupsAt(l) {
			g := &h.GroupsAt(l)[gi]
			lc := c.W.Core(g.Leader)
			gs := &groupState{
				g:             g,
				leader:        g.Leader,
				expSeq:        shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.exp", root, l, gi), lc),
				acks:          map[int]*shm.Flag{},
				redReady:      map[int]*shm.Flag{},
				redDone:       map[int]*shm.Flag{},
				redExpSeq:     map[int]*shm.Flag{},
				redExposed:    map[int]xpmem.Handle{},
				redExposedOff: map[int]int{},
				accExpSeq:     shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.accexp", root, l, gi), lc),
			}
			switch c.Cfg.Flags {
			case SingleFlag:
				gs.ready = shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.ready", root, l, gi), lc)
			case MultiSharedLine:
				gs.memberReady = map[int]*shm.Flag{}
				line := c.W.Sys.NewLine(lc)
				n := 0
				for _, m := range g.Members {
					if m == g.Leader {
						continue
					}
					// A 64-byte line fits 8 flags; spill onto new lines.
					if n > 0 && n%8 == 0 {
						line = c.W.Sys.NewLine(lc)
					}
					gs.memberReady[m] = shm.NewFlagOnLine(c.W.Sys,
						c.name("r%d.l%d.g%d.ready.%d", root, l, gi, m), lc, line)
					n++
				}
			case MultiSeparateLines:
				gs.memberReady = map[int]*shm.Flag{}
				for _, m := range g.Members {
					if m == g.Leader {
						continue
					}
					gs.memberReady[m] = shm.NewFlag(c.W.Sys,
						c.name("r%d.l%d.g%d.ready.%d", root, l, gi, m), lc)
				}
			}
			// Mutation: drop the per-writer line placement and pack every
			// member's ack flag onto one shared line. Each flag keeps its
			// single writer, so only the per-line write-tracker notices.
			var ackLine *mem.Line
			if c.chaos().SharedAckLine {
				ackLine = c.W.Sys.NewLine(lc)
			}
			for _, m := range g.Members {
				mc := c.W.Core(m)
				ackName := c.name("r%d.l%d.g%d.ack.%d", root, l, gi, m)
				if ackLine != nil {
					gs.acks[m] = shm.NewFlagOnLine(c.W.Sys, ackName, mc, ackLine)
				} else {
					gs.acks[m] = shm.NewFlag(c.W.Sys, ackName, mc)
				}
				if m != g.Leader {
					gs.ackWait = append(gs.ackWait, gs.acks[m])
				}
				gs.redReady[m] = shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.rr.%d", root, l, gi, m), mc)
				gs.redDone[m] = shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.rd.%d", root, l, gi, m), mc)
				gs.redExpSeq[m] = shm.NewFlag(c.W.Sys, c.name("r%d.l%d.g%d.rexp.%d", root, l, gi, m), mc)
			}
			lvl = append(lvl, gs)
		}
		st.groups = append(st.groups, lvl)
	}
	st.plans = proto.Build(h, func(l, gi int) *groupState { return st.groups[l][gi] })
	st.views = make([]*rankView, c.W.N)
	for r := range st.views {
		st.views[r] = &rankView{
			rank:     r,
			cumBytes: make([]uint64, h.NLevels()),
			redCum:   make([]uint64, h.NLevels()),
			redDoneB: make([]map[int]uint64, h.NLevels()),
		}
	}
	c.states[root] = st
	return st, nil
}

// groupOf returns the group state rank belongs to at level.
func (st *commState) groupOf(level, rank int) (*groupState, bool) {
	g, ok := st.h.GroupOf(level, rank)
	if !ok {
		return nil, false
	}
	return st.groups[level][g.Index], true
}

// sizeCheck validates a collective's buffer arguments.
func sizeCheck(buf *mem.Buffer, off, n int) {
	if n < 0 || off < 0 || off+n > buf.Len() {
		panic(fmt.Sprintf("core: range [%d:+%d) out of buffer size %d", off, n, buf.Len()))
	}
}
