package baselines

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/hier"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/proto"
	"xhc/internal/shm"
)

// SMHC reimplements the Shared-Memory-based Hierarchical Collectives of
// Jain et al. (SC'18), as the paper does for its comparison: collectives
// directly over shared memory (copy-in-copy-out for every byte, no
// single-copy mechanism), single-writer release/gather flags, and either a
// flat tree or a socket-aware two-level tree.
type SMHC struct {
	W    *env.World
	cfg  SMHCConfig
	h    *hier.Hierarchy
	segs []*mem.Buffer // per-rank shared staging segments
	// plans[r] is rank r's led groups (innermost first) and pull group.
	plans []proto.Plan[*hier.Group]

	// ready[level][group]: leader-owned staged-bytes counter.
	ready [][]*shm.Flag
	// acks[level][group][member]: member-owned completion counters.
	acks [][]map[int]*shm.Flag
	// redReady/redDone: contribution and reduction progress (allreduce).
	redReady [][]map[int]*shm.Flag
	redDone  [][]map[int]*shm.Flag

	views []smhcView
}

type smhcView struct {
	opSeq    uint64
	cumBytes []uint64
	redCum   []uint64
}

// SMHCConfig tunes the component.
type SMHCConfig struct {
	// Tree enables the socket-aware hierarchy (the paper's smhc-tree);
	// false gives the flat variant. On single-socket nodes only the flat
	// variant exists.
	Tree bool
	// SegBytes is each rank's staging segment size; larger messages are
	// chunked through it.
	SegBytes int
	// ChunkBytes is the pipelining granule.
	ChunkBytes int
}

// DefaultSMHCConfig returns the tree variant defaults.
func DefaultSMHCConfig() SMHCConfig {
	return SMHCConfig{Tree: true, SegBytes: 64 << 10, ChunkBytes: 32 << 10}
}

// NewSMHC builds the component.
func NewSMHC(w *env.World, cfg SMHCConfig) (*SMHC, error) {
	if cfg.ChunkBytes > cfg.SegBytes {
		cfg.ChunkBytes = cfg.SegBytes
	}
	var sens hier.Sensitivity
	if cfg.Tree && w.Topo.NSockets > 1 {
		sens = hier.Sensitivity{hier.DomainSocket}
	}
	h, err := hier.Build(w.Topo, w.Map, sens, 0)
	if err != nil {
		return nil, err
	}
	s := &SMHC{W: w, cfg: cfg, h: h}
	s.plans = proto.Build(h, func(l, gi int) *hier.Group { return &h.GroupsAt(l)[gi] })
	s.segs = make([]*mem.Buffer, w.N)
	for r := 0; r < w.N; r++ {
		s.segs[r] = w.NewBufferAt(fmt.Sprintf("smhc.seg.%d", r), r, cfg.SegBytes)
	}
	for l := 0; l < h.NLevels(); l++ {
		var rl []*shm.Flag
		var al, rr, rd []map[int]*shm.Flag
		for gi := range h.GroupsAt(l) {
			g := &h.GroupsAt(l)[gi]
			lc := w.Core(g.Leader)
			rl = append(rl, shm.NewFlag(w.Sys, fmt.Sprintf("smhc.l%d.g%d.ready", l, gi), lc))
			am := map[int]*shm.Flag{}
			rrm := map[int]*shm.Flag{}
			rdm := map[int]*shm.Flag{}
			for _, m := range g.Members {
				mc := w.Core(m)
				am[m] = shm.NewFlag(w.Sys, fmt.Sprintf("smhc.l%d.g%d.ack.%d", l, gi, m), mc)
				rrm[m] = shm.NewFlag(w.Sys, fmt.Sprintf("smhc.l%d.g%d.rr.%d", l, gi, m), mc)
				rdm[m] = shm.NewFlag(w.Sys, fmt.Sprintf("smhc.l%d.g%d.rd.%d", l, gi, m), mc)
			}
			al = append(al, am)
			rr = append(rr, rrm)
			rd = append(rd, rdm)
		}
		s.ready = append(s.ready, rl)
		s.acks = append(s.acks, al)
		s.redReady = append(s.redReady, rr)
		s.redDone = append(s.redDone, rd)
	}
	s.views = make([]smhcView, w.N)
	for r := range s.views {
		s.views[r] = smhcView{
			cumBytes: make([]uint64, h.NLevels()),
			redCum:   make([]uint64, h.NLevels()),
		}
	}
	return s, nil
}

// MustNewSMHC panics on error.
func MustNewSMHC(w *env.World, cfg SMHCConfig) *SMHC {
	s, err := NewSMHC(w, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// announce publishes copied staged bytes to every group in lead.
func (s *SMHC) announce(p *env.Proc, v *smhcView, lead []proto.Role[*hier.Group], copied int) {
	for _, r := range lead {
		s.ready[r.Level][r.G.Index].Set(p.S, p.Core, v.cumBytes[r.Level]+uint64(copied))
	}
}

// Bcast: chunks flow root -> leaders -> members entirely through shared
// staging segments (two copies per hop — the copy-in-copy-out cost the
// paper contrasts with XHC's single-copy path). The hierarchy is fixed
// with rank 0 as the tree source; a different root first feeds rank 0
// through its own segment, chunk-synchronously.
func (s *SMHC) Bcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	v := &s.views[p.Rank]
	v.opSeq++
	if n == 0 {
		s.ackPhase(p, v, 0)
		s.advance(v, 0)
		return
	}

	plan := &s.plans[p.Rank]
	lead, pl := plan.Lead, plan.PullLevel()
	chunk := s.cfg.ChunkBytes
	half := s.cfg.SegBytes / 2
	if chunk > half {
		chunk = half
	}
	slotOf := func(copied int) int { return copied / chunk % 2 * half }

	// Pre-hop: an out-of-tree root feeds rank 0 (the fixed tree source).
	if root != 0 {
		g0, _ := s.h.GroupOf(0, 0)
		rootG, _ := s.h.GroupOf(0, root)
		feedReady := s.redReady[0][rootG.Index][root] // owner: root
		feedDone := s.redDone[0][g0.Index][0]         // owner: rank 0
		base := v.redCum[0]
		if p.Rank == root {
			// The root already holds the data: it does not pull through the
			// tree, but must satisfy its leader's recycling acks upfront.
			if plan.HasPull {
				s.acks[pl][plan.Pull.G.Index][p.Rank].Set(p.S, p.Core, v.cumBytes[0]+uint64(n))
			}
			for copied := 0; copied < n; {
				sz := min(chunk, n-copied)
				// An out-of-tree root that leads groups serves its own
				// members from the same staged chunks, so their recycling
				// acks gate slot reuse alongside rank 0's drain.
				s.waitSlotFree(p, v, copied, chunk)
				p.Copy(s.segs[root], slotOf(copied), buf, off+copied, sz)
				copied += sz
				feedReady.Set(p.S, p.Core, base+uint64(copied))
				// The members of the root's own groups never hear from the
				// rank-0 tree (their leader is the root itself): announce
				// the staged bytes to them directly.
				s.announce(p, v, lead, copied)
				// Chunk-synchronous: wait for rank 0 to drain before the
				// slot could be reused.
				if copied < n {
					over := copied - half
					if over > 0 {
						feedDone.WaitGE(p.S, p.Core, base+uint64(over))
					}
				}
			}
		}
		if p.Rank == 0 {
			for copied := 0; copied < n; {
				sz := min(chunk, n-copied)
				feedReady.WaitGE(p.S, p.Core, base+uint64(copied+sz))
				p.Copy(buf, off+copied, s.segs[root], slotOf(copied), sz)
				copied += sz
				feedDone.Set(p.S, p.Core, base+uint64(copied))
				// Forward immediately: stage into own segment for the tree.
				s.stageAndAnnounce(p, v, buf, off, copied, sz, lead)
			}
		}
	}

	switch {
	case p.Rank == 0 && root == 0:
		// Tree source: pipeline chunks through its own segment.
		for copied := 0; copied < n; {
			sz := min(chunk, n-copied)
			s.waitSlotFree(p, v, copied, chunk)
			p.Copy(s.segs[p.Rank], slotOf(copied), buf, off+copied, sz)
			copied += sz
			s.announce(p, v, lead, copied)
		}
	case p.Rank != 0 && p.Rank != root:
		// Member/leader: pull from the leader's segment.
		gi := plan.Pull.G.Index
		parentSeg := s.segs[plan.Pull.Leader]
		parentReady := s.ready[pl][gi]
		base := v.cumBytes[pl]
		for copied := 0; copied < n; {
			sz := min(chunk, n-copied)
			parentReady.WaitGE(p.S, p.Core, base+uint64(copied+sz))
			p.Copy(buf, off+copied, parentSeg, slotOf(copied), sz)
			if len(lead) > 0 {
				s.waitSlotFree(p, v, copied, chunk)
				p.Copy(s.segs[p.Rank], slotOf(copied), parentSeg, slotOf(copied), sz)
			}
			copied += sz
			s.announce(p, v, lead, copied)
			// Consumption ack for the leader's slot recycling.
			s.acks[pl][gi][p.Rank].Set(p.S, p.Core, v.cumBytes[0]+uint64(copied))
		}
	}

	s.ackPhase(p, v, n)
	s.advance(v, n)
}

// stageAndAnnounce copies the freshly received chunk ending at `copied`
// into this rank's segment and bumps its groups' counters.
func (s *SMHC) stageAndAnnounce(p *env.Proc, v *smhcView, buf *mem.Buffer, off, copied, sz int, lead []proto.Role[*hier.Group]) {
	chunk := s.cfg.ChunkBytes
	half := s.cfg.SegBytes / 2
	if chunk > half {
		chunk = half
	}
	start := copied - sz
	s.waitSlotFree(p, v, start, chunk)
	p.Copy(s.segs[p.Rank], start/chunk%2*half, buf, off+start, sz)
	s.announce(p, v, lead, copied)
}

// advance moves every per-level mirror past an op of n bytes.
func (s *SMHC) advance(v *smhcView, n int) {
	for l := range v.cumBytes {
		v.cumBytes[l] += uint64(n)
		v.redCum[l] += uint64(n)
	}
}

// waitSlotFree blocks a stager about to write the chunk starting at
// `start` until every consumer has drained the chunk that previously
// occupied the same double-buffered slot.
func (s *SMHC) waitSlotFree(p *env.Proc, v *smhcView, start, chunk int) {
	reuseEnd := start - 2*chunk + chunk // end byte of the chunk 2 slots ago
	if reuseEnd <= 0 {
		return
	}
	need := v.cumBytes[0] + uint64(reuseEnd)
	s.waitAcks(p, need)
}

// ackPhase: op-completion handshake (members signal, leaders collect), on
// the dedicated op-granular values above the byte-granular ones.
func (s *SMHC) ackPhase(p *env.Proc, v *smhcView, n int) {
	// Called before advance(): the op's final ack value is base + n; bcast
	// consumers have already arrived there byte by byte, other ops jump
	// straight to it.
	target := v.cumBytes[0] + uint64(n)
	if plan := &s.plans[p.Rank]; plan.HasPull {
		s.acks[plan.Pull.Level][plan.Pull.G.Index][p.Rank].Set(p.S, p.Core, target)
	}
	s.waitAcks(p, target)
}

// waitAcks blocks a leader until every member of each group it leads has
// acked need.
func (s *SMHC) waitAcks(p *env.Proc, need uint64) {
	for _, r := range s.plans[p.Rank].Lead {
		var flags []*shm.Flag
		for _, m := range r.G.Members {
			if m != p.Rank {
				flags = append(flags, s.acks[r.Level][r.G.Index][m])
			}
		}
		shm.WaitAllGE(p.S, p.Core, flags, need)
	}
}

// Allreduce: members stage contributions through their segments; one
// designated reducer per group folds them into the leader's segment
// chunk-wise; the result is broadcast back — all copy-in-copy-out.
func (s *SMHC) Allreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	v := &s.views[p.Rank]
	if n == 0 {
		v.opSeq++
		s.ackPhase(p, v, 0)
		return
	}
	// Process in segment-half-sized pieces: contributions must fit the
	// staging segments.
	piece := s.cfg.SegBytes / 2
	for o := 0; o < n; o += piece {
		sz := min(piece, n-o)
		s.allreducePiece(p, v, sbuf, rbuf, o, sz, dt, op)
	}
}

func (s *SMHC) allreducePiece(p *env.Proc, v *smhcView, sbuf, rbuf *mem.Buffer, off, n int, dt mpi.Datatype, op mpi.Op) {
	v.opSeq++
	plan := &s.plans[p.Rank]
	lead, pl := plan.Lead, plan.PullLevel()
	slot := int(v.opSeq%2) * (s.cfg.SegBytes / 2)

	// Copy-in own contribution.
	p.Copy(s.segs[p.Rank], slot, sbuf, off, n)
	g0, _ := s.h.GroupOf(0, p.Rank)
	s.redReady[0][g0.Index][p.Rank].Set(p.S, p.Core, v.redCum[0]+uint64(n))

	// Bottom-up reduction, one reducer per group (first non-leader).
	for _, r := range lead {
		l, g, gi := r.Level, r.G, r.G.Index
		red := firstNonLeader(g)
		if red >= 0 {
			s.redDone[l][gi][red].WaitGE(p.S, p.Core, v.redCum[l]+uint64(n))
		}
		if l+1 < s.h.NLevels() {
			up, _ := s.h.GroupOf(l+1, p.Rank)
			s.redReady[l+1][up.Index][p.Rank].Set(p.S, p.Core, v.redCum[l+1]+uint64(n))
		}
	}
	if pl >= 0 {
		g, gi := plan.Pull.G, plan.Pull.G.Index
		if firstNonLeader(g) == p.Rank {
			for _, m := range g.Members {
				s.redReady[pl][gi][m].WaitGE(p.S, p.Core, v.redCum[pl]+uint64(n))
			}
			dst := s.segs[g.Leader]
			for _, m := range g.Members {
				if m == g.Leader {
					continue
				}
				src := s.segs[m]
				p.ChargeRead(src, slot, n)
				mpi.ReduceBytes(op, dt, dst.Data[slot:slot+n], src.Data[slot:slot+n])
				p.ChargeCompute(n)
			}
			p.Dirty(dst)
			s.redDone[pl][gi][p.Rank].Set(p.S, p.Core, v.redCum[pl]+uint64(n))
		}
	}

	// Fan the result back out through the segments.
	if p.Rank == s.h.TopLeader() {
		p.Copy(rbuf, off, s.segs[p.Rank], slot, n)
		s.announce(p, v, lead, n)
	} else {
		g := plan.Pull.G
		s.ready[pl][g.Index].WaitGE(p.S, p.Core, v.cumBytes[pl]+uint64(n))
		p.Copy(rbuf, off, s.segs[g.Leader], slot, n)
		if len(lead) > 0 {
			p.Copy(s.segs[p.Rank], slot, s.segs[g.Leader], slot, n)
			s.announce(p, v, lead, n)
		}
	}

	s.ackPhase(p, v, n)
	s.advance(v, n)
}

func firstNonLeader(g *hier.Group) int {
	r := -1
	for _, m := range g.Members {
		if m != g.Leader && (r < 0 || m < r) {
			r = m
		}
	}
	return r
}
