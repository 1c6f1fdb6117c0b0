// Package verify is the protocol checker and fault-injection harness for
// the XHC implementations. It drives the simulated collectives through
// many distinct, replayable schedules per configuration (seeded random and
// PCT-style tie-breaking at the event-heap level, plus wake-delay jitter),
// checks protocol invariants on every schedule — single-writer line
// discipline, data correctness against an exact reference, termination,
// bounded control-structure memory — and cross-checks the simulated
// components against the real-concurrency gxhc backend on identical
// configurations. A mutation self-test (DESIGN.md Section 10) asserts the
// checkers actually catch seeded protocol bugs.
//
// Every run is addressed by a (config seed, schedule seed) pair; a failing
// run prints the pair, and Replay reproduces it bit-exactly.
package verify

import (
	"fmt"

	"xhc/internal/core"
	"xhc/internal/hier"
	"xhc/internal/mpi"
	"xhc/internal/proto"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// rng is the checker's own splitmix64 stream. Like the sim tie-breakers it
// avoids math/rand so replay seeds stay valid across Go releases.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix folds two seeds into one, so derived streams are independent.
func mix(a, b uint64) uint64 {
	r := rng{state: a ^ (b * 0x9e3779b97f4a7c15)}
	return r.next()
}

// OpKind selects the collective a case exercises.
type OpKind int

// Checked collectives.
const (
	KindBcast OpKind = iota
	KindAllreduce
	KindBarrier
	KindReduce
	KindAllgather
	KindScatter
)

func (k OpKind) String() string {
	switch k {
	case KindBcast:
		return "bcast"
	case KindAllreduce:
		return "allreduce"
	case KindBarrier:
		return "barrier"
	case KindReduce:
		return "reduce"
	case KindAllgather:
		return "allgather"
	case KindScatter:
		return "scatter"
	}
	return "?"
}

// Case is one randomized configuration: platform shape, rank count,
// hierarchy sensitivity, collective, message size, datatype, operator and
// tuning knobs. All of it derives deterministically from CfgSeed.
type Case struct {
	CfgSeed uint64

	Plat  topo.Config
	Ranks int
	Root  int
	Sens  string

	Kind  OpKind
	Bytes int
	Dt    mpi.Datatype
	Op    mpi.Op

	Chunk         int
	CICOThreshold int
	Flags         core.FlagScheme
	RegCache      bool

	// Baseline is the registry component cross-checked alongside XHC.
	Baseline string

	// Ops is how many back-to-back operations the run performs (>= 3, so
	// the bounded-control-memory invariant has settled state to compare).
	Ops int

	// Chaos carries a seeded protocol bug for the mutation self-test;
	// nil during normal exploration.
	Chaos *proto.Chaos

	// Conc, when non-nil, adds a concurrency phase to the run: several
	// communicators with overlapping rank sets progressing non-blocking
	// collectives on one node at the same time, on both the simulated and
	// the real-concurrency backend (DESIGN.md §15).
	Conc *ConcCase
}

// ConcComm is one communicator of a concurrency phase. The first entry is
// always the parent communicator itself (Ranks nil); the rest are splits
// of it, deliberately overlapping each other and the parent.
type ConcComm struct {
	// Ranks lists the parent ranks the communicator spans (nil: all).
	Ranks []int
	// Kind is the collective every member issues on this communicator
	// (bcast, allgather or barrier — the kinds both backends run
	// non-blocking over arbitrary bytes).
	Kind OpKind
	// Bytes is the payload size (per-member block for allgather, zero for
	// barrier).
	Bytes int
	// Root is the root in the communicator's own rank numbering.
	Root int
}

// ConcCase parameterizes the concurrency phase: every member keeps
// InFlight requests outstanding per communicator it belongs to, for
// Rounds issue/complete cycles, with the issue streams of the
// communicators interleaved request-by-request.
type ConcCase struct {
	InFlight int
	Rounds   int
	Comms    []ConcComm
}

func (cc *ConcCase) String() string {
	s := fmt.Sprintf("conc(k=%d", cc.InFlight)
	for _, cm := range cc.Comms {
		span := "all"
		if cm.Ranks != nil {
			span = fmt.Sprintf("%d", len(cm.Ranks))
		}
		s += fmt.Sprintf(" %s/%d@%s", cm.Kind, cm.Bytes, span)
	}
	return s + ")"
}

// platforms are the small synthetic node shapes cases draw from: shared-LLC
// parts (Epyc-like) and a cache-less mesh part (ARM-N1-like), one and two
// sockets, one and two NUMA nodes per socket.
var platforms = []topo.Config{
	{Name: "v1n8", Arch: "x86", Sockets: 1, NUMAPerSocket: 1, CoresPerNUMA: 8, CoresPerLLC: 4, LLCBytes: 16 << 20},
	{Name: "v2n8", Arch: "x86", Sockets: 1, NUMAPerSocket: 2, CoresPerNUMA: 4, CoresPerLLC: 4, LLCBytes: 16 << 20},
	{Name: "v2s16", Arch: "x86", Sockets: 2, NUMAPerSocket: 2, CoresPerNUMA: 4, CoresPerLLC: 4, LLCBytes: 16 << 20},
	{Name: "v2s16w", Arch: "x86", Sockets: 2, NUMAPerSocket: 1, CoresPerNUMA: 8, CoresPerLLC: 8, LLCBytes: 32 << 20},
	{Name: "vmesh16", Arch: "arm", Sockets: 1, NUMAPerSocket: 2, CoresPerNUMA: 8, CoresPerLLC: 0, SLCBytes: 32 << 20},
}

var sensitivities = []string{"", "numa", "socket", "numa+socket"}

var baselineNames = []string{"tuned", "ucc", "sm", "smhc-flat", "smhc-tree", "xbrc"}

// messageSizes deliberately includes zero, single-element, non-power-of-two
// and non-multiple-of-chunk sizes next to the round ones.
var messageSizes = []int{0, 8, 64, 100, 1000, 1 << 10, 4000, 4 << 10, 16 << 10, 40000, 64 << 10}

var chunkSizes = []int{256, 1 << 10, 4 << 10, 16 << 10}

var cicoThresholds = []int{0, 512, 1 << 10, 4 << 10}

// DeriveCase expands a config seed into a full Case. The same seed always
// yields the same case.
func DeriveCase(seed uint64) Case {
	r := rng{state: seed}
	c := Case{CfgSeed: seed, Ops: 4}
	c.Plat = platforms[r.next()%uint64(len(platforms))]
	ncores := c.Plat.Sockets * c.Plat.NUMAPerSocket * c.Plat.CoresPerNUMA
	c.Ranks = 2 + int(r.next()%uint64(ncores-1))
	c.Root = int(r.next() % uint64(c.Ranks))
	c.Sens = sensitivities[r.next()%uint64(len(sensitivities))]
	if r.next()%2 == 0 {
		c.Kind = KindBcast
	} else {
		c.Kind = KindAllreduce
	}
	c.Bytes = messageSizes[r.next()%uint64(len(messageSizes))]
	c.Dt = mpi.Datatype(r.next() % 5)
	c.Op = mpi.Op(r.next() % 4)
	if c.Kind == KindAllreduce {
		// Element-aligned, at least one element; the root plays no role.
		es := c.Dt.Size()
		c.Bytes -= c.Bytes % es
		if c.Bytes == 0 {
			c.Bytes = es
		}
		c.Root = 0
	}
	c.Chunk = chunkSizes[r.next()%uint64(len(chunkSizes))]
	c.CICOThreshold = cicoThresholds[r.next()%uint64(len(cicoThresholds))]
	c.Flags = core.FlagScheme(r.next() % 3)
	c.RegCache = r.next()%2 == 0
	c.Baseline = baselineNames[r.next()%uint64(len(baselineNames))]
	// Extension draw, appended after every legacy draw so that the seeds of
	// replay tokens minted before Barrier/Reduce/Allgather/Scatter existed
	// still derive byte-identical cases. Residue 0 keeps the legacy kind
	// drawn above; the other two thirds of seeds move to a newer collective.
	ext := r.next()
	if ext%3 != 0 {
		c.Kind = [...]OpKind{KindBarrier, KindReduce, KindAllgather, KindScatter}[(ext/3)%4]
		switch c.Kind {
		case KindBarrier:
			c.Bytes, c.Root = 0, 0
		case KindReduce:
			es := c.Dt.Size()
			c.Bytes -= c.Bytes % es
			if c.Bytes == 0 {
				c.Bytes = es
			}
			c.Root = int((ext >> 16) % uint64(c.Ranks))
		case KindAllgather:
			c.Root = 0
		case KindScatter:
			c.Root = int((ext >> 16) % uint64(c.Ranks))
		}
		// Only tuned and sm (plus xbrc for the rooted reduction) implement
		// the newer collectives; remap whatever the legacy draw picked.
		if c.Kind == KindReduce {
			c.Baseline = []string{"tuned", "sm", "xbrc"}[(ext>>8)%3]
		} else {
			c.Baseline = []string{"tuned", "sm"}[(ext>>8)%2]
		}
	}
	// Concurrency draw, appended after the extension draw under the same
	// compatibility rule: every earlier draw stays byte-identical, so old
	// replay tokens still derive their exact cases. A third of the seeds
	// (on nodes with enough ranks to split) add a concurrency phase: the
	// parent plus one or two overlapping split communicators, each member
	// keeping 2-4 requests in flight.
	cx := r.next()
	if cx%3 == 0 && c.Ranks >= 4 {
		cc := &ConcCase{InFlight: 2 + int((cx>>8)%3), Rounds: 2}
		// The parent always runs small broadcasts — inside the fusion size
		// class, so the concurrency phase exercises same-shape batching
		// whenever the case's CICO threshold admits it.
		cc.Comms = append(cc.Comms, ConcComm{
			Kind:  KindBcast,
			Bytes: []int{64, 256, 1000}[(cx>>16)%3],
			Root:  int((cx >> 24) % uint64(c.Ranks)),
		})
		// First split: the even parent ranks (overlaps everything).
		evens := make([]int, 0, (c.Ranks+1)/2)
		for rk := 0; rk < c.Ranks; rk += 2 {
			evens = append(evens, rk)
		}
		cc.Comms = append(cc.Comms, deriveConcComm(cx>>32, evens))
		if (cx>>56)%2 == 0 {
			// Second split: a prefix majority, overlapping both the evens
			// and the parent.
			pre := make([]int, c.Ranks/2+1)
			for i := range pre {
				pre[i] = i
			}
			cc.Comms = append(cc.Comms, deriveConcComm(cx>>40, pre))
		}
		c.Conc = cc
	}
	return c
}

// deriveConcComm draws a split communicator's collective from seed bits:
// kind, payload size and root.
func deriveConcComm(bits uint64, ranks []int) ConcComm {
	cm := ConcComm{Ranks: ranks}
	switch bits % 3 {
	case 0:
		cm.Kind, cm.Bytes = KindBcast, []int{64, 256, 1000, 4 << 10}[(bits>>8)%4]
	case 1:
		cm.Kind, cm.Bytes = KindAllgather, []int{64, 256}[(bits>>8)%2]
	case 2:
		cm.Kind = KindBarrier
	}
	if cm.Kind != KindBarrier {
		cm.Root = int((bits >> 16) % uint64(len(ranks)))
	}
	return cm
}

// String identifies a case in failure reports.
func (c Case) String() string {
	s := fmt.Sprintf("%s ranks=%d root=%d sens=%q %s n=%d dt=%s op=%s chunk=%d cico<=%d flags=%s regcache=%v vs %s",
		c.Plat.Name, c.Ranks, c.Root, c.Sens, c.Kind, c.Bytes, c.Dt, c.Op,
		c.Chunk, c.CICOThreshold, c.Flags, c.RegCache, c.Baseline)
	if c.Conc != nil {
		s += " +" + c.Conc.String()
	}
	return s
}

// coreConfig builds the XHC configuration a case describes.
func (c Case) coreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	sens, err := hier.ParseSensitivity(c.Sens)
	if err != nil {
		return cfg, err
	}
	cfg.Sensitivity = sens
	cfg.CICOThreshold = c.CICOThreshold
	cfg.ChunkBytes = []int{c.Chunk}
	cfg.CICOBytes = 0 // auto-sized from the threshold
	cfg.Flags = c.Flags
	cfg.RegCache = c.RegCache
	cfg.Chaos = c.Chaos
	return cfg, nil
}

// Schedule is one replayable perturbation of the event order: a seeded
// tie-breaker over simultaneous events, optional wake-delay jitter, and
// optional fault injection (stragglers, compute jitter, registration-cache
// eviction). SchedSeed zero is the unperturbed FIFO schedule.
type Schedule struct {
	SchedSeed uint64

	// Tie: 0 FIFO, 1 uniform random, 2 PCT-style bursts.
	Tie int
	// WakeJitterPS, when positive, delays every wake by up to this many
	// picoseconds (drawn per wake from the schedule's stream).
	WakeJitterPS int64
	// Faults enables stragglers, per-op compute jitter and mid-collective
	// registration-cache drops.
	Faults bool
}

// DeriveSchedule expands a schedule seed. Seed zero is the plain FIFO
// schedule with no faults — every configuration is checked on it first.
func DeriveSchedule(seed uint64) Schedule {
	if seed == 0 {
		return Schedule{}
	}
	r := rng{state: seed}
	s := Schedule{SchedSeed: seed}
	s.Tie = 1 + int(r.next()%2)
	if r.next()%2 == 0 {
		s.WakeJitterPS = int64(200 * sim.Nanosecond)
	}
	s.Faults = r.next()%3 != 0
	return s
}

// String identifies a schedule in failure reports.
func (s Schedule) String() string {
	if s.SchedSeed == 0 {
		return "fifo"
	}
	tie := [...]string{"fifo", "random", "pct"}[s.Tie]
	return fmt.Sprintf("%s jitter=%dns faults=%v", tie, s.WakeJitterPS/int64(sim.Nanosecond), s.Faults)
}
