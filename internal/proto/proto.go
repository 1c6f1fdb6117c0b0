// Package proto holds the XHC protocol once, for both backends: the
// broadcast family (the root's expose/announce, the pipelined chunk pull
// behind the leader-owned ready counter, the double-buffered
// copy-in-copy-out path, the fused-batch traversal), the subtree-first
// acknowledgment and the barrier round (the paper's Sections IV-A and
// IV-C), Scatter, the Allreduce/Reduce family (reduce.go: the
// index-partitioned, pipelined reduction of Section IV-B and its CICO
// path), the non-blocking request lane (request.go), and the one set of
// seeded protocol bugs (Chaos) both backends take.
//
// It is written against Mem, the machine layer one rank runs on: package
// core implements it on the simulated node, package gxhc on real memory.
// The handle is a type parameter, not an interface value, so dictionary
// calls let nothing escape and gxhc's op path stays allocation-free. The
// simulator's reports and replay fingerprints pin the order of the calls
// made here, so that order must not move.
package proto

import (
	"sort"

	"xhc/internal/hier"
)

// Flag names one of a group's control counters.
type Flag uint8

const (
	Exp   Flag = iota // leader-owned exposure sequence (fused: last sub-op)
	Ready             // leader-owned cumulative available-bytes counter
	Ack               // the calling rank's own completed-op counter

	// The reduction's counters (reduce.go). AccExp is the leader's; the
	// other three are one per member slot, each written by its member.
	AccExp   // the accumulator's exposure sequence
	RedExp   // a contribution's exposure sequence
	RedReady // cumulative contribution bytes ready to be folded
	RedDone  // RedReady's value at the op's start plus the bytes folded since
)

// Phase names the segment a Mark closes. The values are obs.Phase's
// (pinned by TestPhasesMatchObs), so a backend converts with obs.Phase(ph);
// proto does not import obs, which pulls in the simulator.
type Phase uint8

const (
	PhaseExpose      Phase = 1 // publishing or attaching a buffer
	PhaseFlagWait    Phase = 2 // waiting on a flag
	PhaseChunkCopy   Phase = 3 // moving payload bytes
	PhaseReduceSlice Phase = 4 // folding a reducer's slice
	PhaseAck         Phase = 5 // the closing acknowledgment
)

// Role is one rank's handle on one hierarchy group.
type Role[G any] struct {
	G      G   // the backend's control block of the group
	Level  int // hierarchy level of the group
	Slot   int // the rank's member index in the group
	Leader int // the group's leader rank
	// Reducers lists the member slots of the group's reducers (every
	// member but the leader) in ascending rank order, shared by the
	// group's roles; Red is the rank's index in it, -1 for the leader.
	Reducers []int
	Red      int
	red      redState
}

// Plan is one rank's precomputed view of a hierarchy (one per root): the
// groups it leads, innermost first, and the group it pulls from as a
// plain member. Only the root has no pull group.
type Plan[G any] struct {
	Rank    int
	N       int // ranks in the hierarchy
	Lead    []Role[G]
	Pull    Role[G]
	HasPull bool
	// Top is the top-level group, led by the root, whose control block
	// carries Scatter's exposure to every rank. Its Slot is not set: most
	// ranks are not members.
	Top Role[G]
	// redCum mirrors each level's contribution counters (RedReady) the way
	// a caller's cum mirrors the ready counters; only reductions advance it.
	redCum []uint64
}

// Build precomputes every rank's plan on h. group returns the backend's
// control block of group index at level.
func Build[G any](h *hier.Hierarchy, group func(level, index int) G) []Plan[G] {
	tl := h.NLevels() - 1
	top := Role[G]{G: group(tl, 0), Level: tl, Leader: h.TopLeader(), Red: -1}
	reducers := make([][][]int, h.NLevels()) // [level][index]
	for l := range reducers {
		for _, g := range h.GroupsAt(l) {
			reducers[l] = append(reducers[l], reducerSlots(&g))
		}
	}
	plans := make([]Plan[G], h.NRanks)
	for r := range plans {
		p := &plans[r]
		p.Rank, p.N, p.Top = r, h.NRanks, top
		for l := 0; l < h.NLevels(); l++ {
			g, ok := h.GroupOf(l, r)
			if !ok {
				break
			}
			role := Role[G]{G: group(l, g.Index), Level: l, Leader: g.Leader,
				Reducers: reducers[l][g.Index], Red: -1}
			for s, m := range g.Members {
				if m == r {
					role.Slot = s
					break
				}
			}
			for i, s := range role.Reducers {
				if s == role.Slot {
					role.Red = i
				}
			}
			if g.Leader == r {
				p.Lead = append(p.Lead, role)
				continue
			}
			p.Pull, p.HasPull = role, true
			break // a plain member takes part in no higher level
		}
		p.initRed(h.NLevels())
	}
	return plans
}

// PullLevel is the level of the rank's pull group, -1 for the root.
func (p *Plan[G]) PullLevel() int {
	if !p.HasPull {
		return -1
	}
	return p.Pull.Level
}

// reducerSlots returns g's non-leader member slots in ascending rank
// order: the reducers, in the order Slice assigns them their slices.
func reducerSlots(g *hier.Group) []int {
	var rs []int
	for s, m := range g.Members {
		if m != g.Leader {
			rs = append(rs, s)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return g.Members[rs[i]] < g.Members[rs[j]] })
	return rs
}

// Chaos seeds deliberate protocol bugs for the verify harness's mutation
// self-test (DESIGN.md §10). Each field reintroduces one bug class the XHC
// design rules out, and internal/verify asserts that its checkers catch
// every one. Both backends take it as Config.Chaos; nil (the default)
// leaves the protocol untouched. A field read in this package acts on
// both backends, since both run this code; the self-test seeds each one on
// the backend named in brackets.
type Chaos struct {
	// SkipAck [core]: pure members (ranks that lead no group) skip their
	// ack — in Barrier, their arrival signal — so their leaders wait
	// forever. Read here. Caught by the engine's deadlock detector.
	SkipAck bool
	// EarlyReady [core, gxhc]: availability is published before the work
	// that backs it. Read here (a chunk, staged CICO copy or scatter block
	// is announced before its copy lands; Barrier leaders release their
	// subtree before gathering its arrivals; a reducer marks its slice
	// folded before folding it: a pure member's, and every reducer's on
	// the CICO path) and in core's CICO allgather (a rank publishes its
	// push before staging it). Caught by the data checks or Barrier's
	// ordering stamps. On gxhc the reduce bug is a data race, so its
	// self-test row never runs under the race detector.
	EarlyReady bool
	// StaleReady [gxhc]: members copy without waiting on the leader's
	// ready counter, as if reading it without acquire ordering. Read here.
	// On gxhc it is a genuine data race, so the self-test never runs it
	// under the race detector. Caught by the data check.
	StaleReady bool
	// AckRegression [core]: from the second op on, members republish a
	// rewound ack counter. Read here. The simulator's flags reject the
	// non-monotone store: an engine failure.
	AckRegression bool
	// FuseCorrupt [core, gxhc]: the fused root shifts each staged sub-op
	// left by one byte (Fused), at any batch size for payloads of at least
	// two bytes. Read here. Caught by byte-exactness.
	FuseCorrupt bool
	// SharedAckLine [core]: every member's ack flag of a group goes onto
	// one shared cache line. Each flag keeps its single writer, so only
	// the write tracker's per-line discipline catches it.
	SharedAckLine bool
	// LostProgress [core, gxhc]: the request worker runs a non-blocking op
	// but never publishes its completion, so Test never reports done and
	// Wait blocks forever. Caught by the deadlock detector (core) or the
	// Test deadline (gxhc).
	LostProgress bool
	// EarlyComplete [core, gxhc]: a non-blocking request completes without
	// running its body. Every rank skips uniformly (no hang), so the
	// per-request byte check sees the caller's junk fill.
	EarlyComplete bool
	// SkipResultPull [gxhc]: every top-group reducer of an allreduce takes
	// the sole-reducer rule (writes its own slice of the result, no wait on
	// the top leader's ready counter, no pull of the rest) even when other
	// reducers own the rest of the vector. Read here; it acts only where
	// Reduction.SoleWrites allows the rule, so not on core. Race-free
	// within one op; caught by the data check.
	SkipResultPull bool
}

// Sub is one sub-op of a fused batch: the caller's buffer and offset.
type Sub[B any] struct {
	Buf B
	Off int
}

// Mem is the machine layer one rank runs the protocol against; G is the
// backend's group control block, B its buffer type. A handle serves one
// operation at a time.
type Mem[G, B any] interface {
	Set(r *Role[G], f Flag, v uint64)           // Ack: the caller's own
	WaitGE(r *Role[G], f Flag, v uint64) uint64 // Exp or Ready
	WaitAll(r *Role[G], v uint64)               // every non-leader's Ack
	// Expose stores buf[off:] (and a fused batch's first sub-op, else 0)
	// as the group leader's buffer; the Exp store that follows publishes
	// it. Attach maps it for a member; Release drops the mapping.
	Expose(r *Role[G], buf B, off int, first uint64)
	Attach(r *Role[G]) (src B, off int, first uint64)
	Release(r *Role[G])
	Copy(dst B, doff int, src B, soff, n int)
	CICO(rank int) (buf B, slot int) // rank's two-slot CICO buffer
	CICOMax() int                    // largest message on the CICO path
	Chunk(level int) int             // pull granule at a level
	FuseStage(n int) B               // the caller's fused-batch staging
	Mark(level int, ph Phase, bytes int64)
	MarkFrom(level int, ph Phase, bytes int64, from int) // released by rank from
	Pull(from, n int)                                    // one member<-leader data edge
	Chaos() *Chaos                                       // the seeded bugs; never nil, read-only

	// The reduction (reduce.go). Contribute stores buf as the caller's
	// contribution to r's group (acc false) or, by the leader, as the
	// group's accumulator (acc true); the RedExp or AccExp store that
	// follows publishes it. AttachRed maps member slot s's contribution,
	// or the accumulator for s == Acc, for the Folds that follow.
	Contribute(r *Role[G], buf B, acc bool)
	AttachRed(r *Role[G], s int) B
	// Fold reduces bytes [off, off+n) of every member's contribution into
	// the accumulator: the leader's seeds it, then the other members fold
	// in slot order. With cico the contributions are the members' CICO
	// buffers and the accumulator the leader's, which holds its own.
	Fold(r *Role[G], off, n int, cico bool)
	Load(r *Role[G], f Flag, s int) uint64        // member slot s's flag, without waiting
	WaitSlot(r *Role[G], f Flag, s int, v uint64) // until slot s's flag reaches v
	WaitSlots(r *Role[G], f Flag, want []uint64)  // until each slot's reaches want[s] (0: no wait)
	// Stall is what a leader does after a progress-loop pass that moved
	// nothing; slot s's flag f reaching v is the loop's first unmet need,
	// and another rank writes it.
	Stall(r *Role[G], f Flag, s int, v uint64)
	Reduction() Reduction
}

// Advance moves a rank's per-level ready mirrors past an op of n bytes.
func Advance(cum []uint64, n uint64) {
	for l := range cum {
		cum[l] += n
	}
}

// Bcast broadcasts buf[off:off+n] from the plan's root: the CICO path up
// to CICOMax, the pipelined single-copy pull above it, nothing to move at
// n == 0; then it advances cum and runs the acknowledgment.
func Bcast[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64, buf B, off, n int) {
	switch {
	case n == 0:
	case n <= m.CICOMax():
		cico(m, p, seq, cum, buf, off, n)
	default:
		Pipeline(m, p, seq, cum, buf, off, n)
	}
	Advance(cum, uint64(n))
	AckPhase(m, p, seq)
}

// Announce publishes v available bytes to every group the rank leads.
func Announce[M Mem[G, B], G, B any](m M, p *Plan[G], cum []uint64, v uint64) {
	for i := range p.Lead {
		r := &p.Lead[i]
		m.Set(r, Ready, cum[r.Level]+v)
	}
}

// Pipeline is a broadcast's single-copy data movement, without the counter
// advance and the ack: leaders expose buf, the root announces all n bytes
// at once, every other rank pulls (Pull).
func Pipeline[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64, buf B, off, n int) {
	for i := range p.Lead {
		r := &p.Lead[i]
		m.Expose(r, buf, off, 0)
		m.Set(r, Exp, seq)
	}
	m.Mark(-1, PhaseExpose, 0)
	if !p.HasPull {
		Announce(m, p, cum, uint64(n))
		m.Mark(-1, PhaseChunkCopy, int64(n))
		return
	}
	Pull(m, p, seq, cum, buf, off, n)
}

// Pull is a member's side of the pipelined broadcast: wait for the op's
// exposure, attach, then copy chunk by chunk as the leader's ready counter
// allows, announcing each chunk to the groups this rank leads. The chunk
// granule (not "everything available") is what lets children overlap
// with this rank's own progress (Fig. 5).
func Pull[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64, buf B, off, n int) {
	r := &p.Pull
	mut := m.Chaos()
	m.WaitGE(r, Exp, seq)
	m.MarkFrom(r.Level, PhaseFlagWait, 0, r.Leader)
	src, soff, _ := m.Attach(r)
	m.Mark(r.Level, PhaseExpose, 0)
	base := cum[r.Level]
	chunk := m.Chunk(r.Level)
	copied := 0
	for copied < n {
		avail := n
		if !mut.StaleReady {
			want := min(chunk, n-copied)
			avail = min(int(m.WaitGE(r, Ready, base+uint64(copied+want))-base), n)
		}
		m.MarkFrom(r.Level, PhaseFlagWait, 0, r.Leader)
		before := copied
		for copied < avail {
			take := min(chunk, avail-copied)
			if mut.EarlyReady {
				Announce(m, p, cum, uint64(copied+take))
			}
			m.Copy(buf, off+copied, src, soff+copied, take)
			copied += take
			if !mut.EarlyReady {
				Announce(m, p, cum, uint64(copied))
			}
		}
		m.Mark(r.Level, PhaseChunkCopy, int64(copied-before))
	}
	m.Release(r)
	m.Mark(r.Level, PhaseExpose, 0)
	m.Pull(r.Leader, n)
}

// cico is the small-message path (paper Section IV-C): the same algorithm
// with the leaders' double-buffered CICO slots in place of attached user
// buffers. The root copies in and announces; members wait and copy out,
// and forwarding leaders restage into their own slot and announce.
func cico[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64, buf B, off, n int) {
	early := m.Chaos().EarlyReady
	own, half := m.CICO(p.Rank)
	slot := int(seq) % 2 * half
	if !p.HasPull {
		if early {
			Announce(m, p, cum, uint64(n))
		}
		m.Copy(own, slot, buf, off, n)
		if !early {
			Announce(m, p, cum, uint64(n))
		}
		m.Mark(-1, PhaseChunkCopy, int64(n))
		return
	}
	r := &p.Pull
	m.WaitGE(r, Ready, cum[r.Level]+uint64(n))
	m.Mark(r.Level, PhaseFlagWait, 0)
	src, _ := m.CICO(r.Leader)
	fwd := len(p.Lead) > 0
	if early && fwd {
		Announce(m, p, cum, uint64(n))
	}
	m.Copy(buf, off, src, slot, n)
	if fwd {
		m.Copy(own, slot, src, slot, n)
		if !early {
			Announce(m, p, cum, uint64(n))
		}
	}
	m.Mark(r.Level, PhaseChunkCopy, int64(n))
	m.Pull(r.Leader, n)
}

// AckPhase is the hierarchical acknowledgment that closes an op: leaders
// collect their led groups innermost-first BEFORE publishing their own
// ack, so an ack certifies the rank's whole subtree is done — a rank whose
// buffer is attached from afar can treat its own return as proof that no
// reader is left anywhere below it.
func AckPhase[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64) {
	for i := range p.Lead {
		m.WaitAll(&p.Lead[i], seq)
	}
	if p.HasPull {
		mut := m.Chaos()
		switch {
		case mut.SkipAck && len(p.Lead) == 0:
			// Mutation: a pure member forgets its ack; its leader's
			// WaitAll never completes.
		case mut.AckRegression && seq >= 2:
			m.Set(&p.Pull, Ack, seq-2) // Mutation: a rewound counter.
		default:
			m.Set(&p.Pull, Ack, seq)
		}
	}
	m.Mark(-1, PhaseAck, 0)
}

// Scatter sends block r (n bytes) of the root's buf[0:n*N] to rank r's
// out[0:n]. Every rank reads its block straight from the root through the
// top group's control block: the hierarchy adds nothing to scatter's
// disjoint traffic, but the subtree-first ack that closes the op means the
// root returns only once no rank reads buf. When n <= CICOMax and all N
// blocks fit in half a CICO buffer, the blocks go through the root's CICO
// slot instead of an attached buf.
func Scatter[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, buf, out B, n int) {
	top := &p.Top
	_, half := m.CICO(top.Leader)
	switch {
	case n == 0:
	case n <= m.CICOMax() && n*p.N <= half:
		cicoScatter(m, p, seq, buf, out, n)
	case !p.HasPull:
		m.Expose(top, buf, 0, 0)
		m.Set(top, Exp, seq)
		m.Mark(-1, PhaseExpose, 0)
		m.Copy(out, 0, buf, n*p.Rank, n)
		m.Mark(-1, PhaseChunkCopy, int64(n))
	default:
		m.WaitGE(top, Exp, seq)
		m.MarkFrom(-1, PhaseFlagWait, 0, top.Leader)
		src, soff, _ := m.Attach(top)
		m.Mark(-1, PhaseExpose, 0)
		m.Copy(out, 0, src, soff+n*p.Rank, n)
		m.Mark(-1, PhaseChunkCopy, int64(n))
		m.Release(top)
		m.Mark(-1, PhaseExpose, 0)
		m.Pull(top.Leader, n)
	}
	AckPhase(m, p, seq)
}

// cicoScatter is Scatter's small-block path: the root stages all N blocks
// into its CICO slot in one copy and announces them on the top group's
// exposure counter; every other rank copies its own block out.
func cicoScatter[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, buf, out B, n int) {
	top := &p.Top
	stg, half := m.CICO(top.Leader)
	slot := int(seq) % 2 * half
	if !p.HasPull {
		early := m.Chaos().EarlyReady
		if early {
			m.Set(top, Exp, seq) // Mutation: announce before the copy-in.
		}
		m.Copy(stg, slot, buf, 0, n*p.N)
		if !early {
			m.Set(top, Exp, seq)
		}
		m.Copy(out, 0, buf, n*p.Rank, n)
		m.Mark(-1, PhaseChunkCopy, int64(n*p.N))
		return
	}
	m.WaitGE(top, Exp, seq)
	m.MarkFrom(-1, PhaseFlagWait, 0, top.Leader)
	m.Copy(out, 0, stg, slot+n*p.Rank, n)
	m.Mark(-1, PhaseChunkCopy, int64(n))
	m.Pull(top.Leader, n)
}

// Barrier is the hierarchical arrival/release round: arrivals propagate
// up through the acks (leaders collect their members first), the release
// propagates down as one token byte on the ready counters, and every
// level's cum mirror consumes that token.
func Barrier[M Mem[G, B], G, B any](m M, p *Plan[G], seq uint64, cum []uint64) {
	mut := m.Chaos()
	if mut.EarlyReady {
		// Mutation: release the subtree before its arrivals are in.
		release(m, p, cum)
	}
	for i := range p.Lead {
		m.WaitAll(&p.Lead[i], seq)
	}
	if p.HasPull {
		if !(mut.SkipAck && len(p.Lead) == 0) { // Mutation: no arrival.
			m.Set(&p.Pull, Ack, seq)
		}
		m.WaitGE(&p.Pull, Ready, cum[p.Pull.Level]+1)
	}
	if !mut.EarlyReady {
		release(m, p, cum)
	}
	Advance(cum, 1)
	m.Mark(-1, PhaseFlagWait, 0)
}

// release hands the barrier token to every led group, outermost first.
func release[M Mem[G, B], G, B any](m M, p *Plan[G], cum []uint64) {
	for i := len(p.Lead) - 1; i >= 0; i-- {
		r := &p.Lead[i]
		m.Set(r, Ready, cum[r.Level]+1)
	}
}

// Fused runs one hierarchy traversal carrying a batch of same-shape small
// broadcasts (sub-ops first .. first+len(subs)-1, n bytes each, one root).
//
// The root stages the payloads contiguously and announces the whole batch
// at once (ready advances by k*n, Exp jumps to the last sub-op). Members
// serve sub-ops in rounds: wait until the parent's Exp covers the next
// unserved sub-op, re-read the parent's first sub-op (the parent's own
// batching may be ragged against ours), copy each covered sub-op out,
// restage and republish for their own groups, and ack incrementally — so
// a parent whose batch ends mid-way through ours can retire it and publish
// the rest. The trailing freeze guard (every leader waits for its members'
// acks of the last sub-op) pins the staging until no reader is left. The
// counters advance exactly as k blocking broadcasts would advance them, so
// fused and unfused ops interleave freely on one communicator.
func Fused[M Mem[G, B], G, B any](m M, p *Plan[G], first uint64, cum []uint64, subs []Sub[B], n int) {
	k := len(subs)
	last := first + uint64(k) - 1
	kn := uint64(k) * uint64(n)
	var stg B
	if len(p.Lead) > 0 { // the root always leads
		stg = m.FuseStage(k * n)
	}
	if !p.HasPull {
		for i, s := range subs {
			m.Copy(stg, i*n, s.Buf, s.Off, n)
		}
		if m.Chaos().FuseCorrupt && n >= 2 {
			for i := range subs { // Mutation: shift each sub-op left a byte.
				m.Copy(stg, i*n, stg, i*n+1, n-1)
			}
		}
		m.Mark(-1, PhaseChunkCopy, int64(kn))
		publish(m, p, cum, stg, first, kn, last)
		m.Mark(-1, PhaseExpose, 0)
	} else {
		r := &p.Pull
		for served := 0; served < k; {
			e := m.WaitGE(r, Exp, first+uint64(served))
			m.MarkFrom(r.Level, PhaseFlagWait, 0, r.Leader)
			src, soff, f := m.Attach(r)
			upTo := min(e, last)
			for q := first + uint64(served); q <= upTo; q++ {
				s := subs[q-first]
				m.Copy(s.Buf, s.Off, src, soff+int(q-f)*n, n)
				if len(p.Lead) > 0 {
					m.Copy(stg, int(q-first)*n, s.Buf, s.Off, n)
				}
			}
			round := int(upTo-first) + 1 - served
			m.Mark(r.Level, PhaseChunkCopy, int64(round*n))
			m.Release(r)
			served = int(upTo-first) + 1
			if len(p.Lead) > 0 {
				publish(m, p, cum, stg, first, uint64(served)*uint64(n), upTo)
				m.Mark(r.Level, PhaseExpose, 0)
			}
			m.Set(r, Ack, upTo)
		}
		m.Pull(r.Leader, k*n)
	}
	for i := range p.Lead {
		m.WaitAll(&p.Lead[i], last)
	}
	m.Mark(-1, PhaseAck, 0)
	Advance(cum, kn)
}

// publish exposes a fused batch's staging to every led group with done
// bytes ready and sub-ops up to exp available.
func publish[M Mem[G, B], G, B any](m M, p *Plan[G], cum []uint64, stg B, first, done, exp uint64) {
	for i := range p.Lead {
		r := &p.Lead[i]
		m.Expose(r, stg, 0, first)
		m.Set(r, Ready, cum[r.Level]+done)
		m.Set(r, Exp, exp)
	}
}
