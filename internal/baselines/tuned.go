// Package baselines implements the collective frameworks the paper
// compares XHC against: OpenMPI's tuned (point-to-point algorithms over
// UCX-like transports) and sm (shared memory with atomic flags)
// components, a UCC-like library, and reimplementations of two research
// frameworks — SMHC (shared-memory hierarchical collectives, Jain et al.)
// and XBRC (XPMEM-based reduction collectives, Hashmi et al.).
package baselines

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
)

// Component is the interface all collective implementations share
// (package core's Comm satisfies it too).
type Component interface {
	Bcast(p *env.Proc, buf *mem.Buffer, off, n, root int)
	Allreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op)
}

// Tuned mimics OpenMPI's tuned component: collectives composed from
// point-to-point messages, with size-based algorithm selection — binomial
// trees for small broadcasts, a segmented pipeline chain for large ones;
// recursive doubling for small allreduce, Rabenseifner
// (reduce-scatter + allgather) for large. The communication schedule is
// static and topology-unaware, which is exactly the weakness the paper's
// Fig. 9 exposes.
type Tuned struct {
	W   *env.World
	P   *mpi.P2P
	cfg TunedConfig

	// tmp holds per-rank scratch for reductions. Tags may repeat across
	// operations: per-(src,dst,tag) FIFO matching plus identical program
	// order on all ranks keeps matching unambiguous.
	tmp []*mem.Buffer
}

// TunedConfig tunes algorithm switchover points.
type TunedConfig struct {
	// BcastChainThreshold: above this, Bcast switches from the binomial
	// tree to the segmented binary tree.
	BcastChainThreshold int
	// BcastPipelineThreshold: above this, Bcast uses the pipeline (chain),
	// whose stride-1 schedule is fast under sequential rank placement and
	// collapses under round-robin placement (the Fig. 9a sensitivity).
	BcastPipelineThreshold int
	// BcastSegBytes is the chain segment size.
	BcastSegBytes int
	// AllreduceRabThreshold: above this, Allreduce uses Rabenseifner.
	AllreduceRabThreshold int
	// P2P is the transport configuration.
	P2P mpi.Config
}

// DefaultTunedConfig mirrors OpenMPI defaults (UCX + XPMEM under SMSC).
func DefaultTunedConfig() TunedConfig {
	return TunedConfig{
		BcastChainThreshold:    128 << 10,
		BcastPipelineThreshold: 512 << 10,
		BcastSegBytes:          64 << 10,
		AllreduceRabThreshold:  16 << 10,
		P2P:                    mpi.DefaultConfig(),
	}
}

// NewTuned builds the component for a world.
func NewTuned(w *env.World, cfg TunedConfig) *Tuned {
	return &Tuned{
		W:   w,
		P:   mpi.NewP2P(w, cfg.P2P),
		cfg: cfg,
		tmp: make([]*mem.Buffer, w.N),
	}
}

// scratch returns rank's reduction scratch of at least n bytes.
func (t *Tuned) scratch(rank, n int) *mem.Buffer {
	if t.tmp[rank] == nil || t.tmp[rank].Len() < n {
		t.tmp[rank] = t.W.NewBufferAt(fmt.Sprintf("tuned.tmp.%d", rank), rank, n)
	}
	return t.tmp[rank]
}

// Bcast broadcasts via binomial tree (small) or a segmented binary tree
// (large) — OpenMPI's static schedules. In the segmented binary tree every
// inner node forwards each segment to two children, halving its effective
// output bandwidth; this is a key inefficiency the paper's XHC avoids.
func (t *Tuned) Bcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	switch {
	case n > t.cfg.BcastPipelineThreshold:
		t.chainBcast(p, buf, off, n, root)
	case n > t.cfg.BcastChainThreshold:
		t.binarySegBcast(p, buf, off, n, root)
	default:
		t.binomialBcast(p, buf, off, n, root, 0)
	}
}

// binomialBcast: classic virtual-root binomial tree over p2p.
func (t *Tuned) binomialBcast(p *env.Proc, buf *mem.Buffer, off, n, root, tag int) {
	N := t.W.N
	if N == 1 {
		return
	}
	vr := (p.Rank - root + N) % N
	// Receive from parent (highest set bit of vr cleared).
	if vr != 0 {
		mask := 1
		for mask <= vr {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vr - mask) + root) % N
		t.P.Recv(p, parent, tag, buf, off, n)
	}
	// Send to children vr + 2^k for 2^k > vr.
	mask := 1
	for mask <= vr {
		mask <<= 1
	}
	for ; mask < N; mask <<= 1 {
		child := vr + mask
		if child >= N {
			break
		}
		t.P.Send(p, (child+root)%N, tag, buf, off, n)
	}
}

// chainBcast: the segmented pipeline — virtual rank vr receives each
// segment from its predecessor and forwards it to its successor.
func (t *Tuned) chainBcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	N := t.W.N
	if N == 1 {
		return
	}
	vr := (p.Rank - root + N) % N
	prev := (p.Rank - 1 + N) % N
	next := (p.Rank + 1) % N
	seg := t.cfg.BcastSegBytes
	nseg := (n + seg - 1) / seg
	for s := 0; s < nseg; s++ {
		o := s * seg
		sz := min(seg, n-o)
		if vr != 0 {
			t.P.Recv(p, prev, s, buf, off+o, sz)
		}
		if vr != N-1 {
			t.P.Send(p, next, s, buf, off+o, sz)
		}
	}
}

// binarySegBcast: segmented binary tree. Node vr receives each segment
// from (vr-1)/2 and forwards it to 2vr+1 and 2vr+2.
func (t *Tuned) binarySegBcast(p *env.Proc, buf *mem.Buffer, off, n, root int) {
	N := t.W.N
	if N == 1 {
		return
	}
	vr := (p.Rank - root + N) % N
	toReal := func(v int) int { return (v + root) % N }
	parent := (vr - 1) / 2
	c1, c2 := 2*vr+1, 2*vr+2
	seg := t.cfg.BcastSegBytes
	nseg := (n + seg - 1) / seg
	for s := 0; s < nseg; s++ {
		o := s * seg
		sz := min(seg, n-o)
		if vr != 0 {
			t.P.Recv(p, toReal(parent), s, buf, off+o, sz)
		}
		if c1 < N {
			t.P.Send(p, toReal(c1), s, buf, off+o, sz)
		}
		if c2 < N {
			t.P.Send(p, toReal(c2), s, buf, off+o, sz)
		}
	}
}

// Allreduce: recursive doubling (small) or Rabenseifner (large), with the
// standard non-power-of-two fold.
func (t *Tuned) Allreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	// Result accumulates in rbuf; start from own contribution.
	p.Copy(rbuf, 0, sbuf, 0, n)
	if n <= t.cfg.AllreduceRabThreshold || n/t.W.N < dt.Size() {
		t.recursiveDoubling(p, rbuf, n, dt, op)
		return
	}
	t.rabenseifner(p, rbuf, n, dt, op)
}

// pow2Below returns the largest power of two <= n.
func pow2Below(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// fold handles the pre-step for non-power-of-two rank counts: the first
// 2*rem ranks pair up; odd ranks of each pair send their data to the even
// ones and sit out. Returns this rank's id within the power-of-two group,
// or -1 if it sits out.
func (t *Tuned) foldIn(p *env.Proc, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, tag int) int {
	N := t.W.N
	P := pow2Below(N)
	rem := N - P
	r := p.Rank
	switch {
	case r < 2*rem && r%2 == 1:
		// Sends its contribution to the left neighbour and waits for the
		// final result afterwards.
		t.P.Send(p, r-1, tag, rbuf, 0, n)
		return -1
	case r < 2*rem:
		tmp := t.scratch(r, n)
		t.P.Recv(p, r+1, tag, tmp, 0, n)
		mpi.ReduceBytes(op, dt, rbuf.Data[:n], tmp.Data[:n])
		p.ChargeCompute(n)
		p.Dirty(rbuf)
		return r / 2
	default:
		return r - rem
	}
}

// foldOut sends the final result back to the ranks that sat out.
func (t *Tuned) foldOut(p *env.Proc, rbuf *mem.Buffer, n int, tag int) {
	N := t.W.N
	P := pow2Below(N)
	rem := N - P
	r := p.Rank
	if r < 2*rem && r%2 == 1 {
		t.P.Recv(p, r-1, tag, rbuf, 0, n)
	} else if r < 2*rem && r%2 == 0 {
		t.P.Send(p, r+1, tag, rbuf, 0, n)
	}
}

// recursiveDoubling: log2(P) exchange-and-reduce rounds.
func (t *Tuned) recursiveDoubling(p *env.Proc, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	const tagA, tagB = 1 << 20, 1<<20 + 1
	vr := t.foldIn(p, rbuf, n, dt, op, tagA)
	if vr >= 0 {
		N := t.W.N
		P := pow2Below(N)
		rem := N - P
		toReal := func(v int) int {
			if v < rem {
				return v * 2
			}
			return v + rem
		}
		tmp := t.scratch(p.Rank, n)
		for mask := 1; mask < P; mask <<= 1 {
			peer := toReal(vr ^ mask)
			// Symmetric exchange: lower rank sends first to avoid the
			// rendezvous deadlock of two simultaneous blocking sends.
			if p.Rank < peer {
				t.P.SendSync(p, peer, mask, rbuf, 0, n)
				t.P.Recv(p, peer, mask, tmp, 0, n)
			} else {
				t.P.Recv(p, peer, mask, tmp, 0, n)
				t.P.SendSync(p, peer, mask, rbuf, 0, n)
			}
			mpi.ReduceBytes(op, dt, rbuf.Data[:n], tmp.Data[:n])
			p.ChargeCompute(n)
			p.Dirty(rbuf)
		}
	}
	t.foldOut(p, rbuf, n, tagB)
}

// rabenseifner: recursive-halving reduce-scatter followed by recursive
// doubling allgather, bandwidth-optimal for large messages.
func (t *Tuned) rabenseifner(p *env.Proc, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	const tagA, tagB = 1 << 21, 1<<21 + 1
	vr := t.foldIn(p, rbuf, n, dt, op, tagA)
	if vr >= 0 {
		N := t.W.N
		P := pow2Below(N)
		rem := N - P
		toReal := func(v int) int {
			if v < rem {
				return v * 2
			}
			return v + rem
		}
		es := dt.Size()
		elems := n / es
		tmp := t.scratch(p.Rank, n)

		// Reduce-scatter by recursive halving: after each round this rank
		// owns a halved span [lo, hi) of elements.
		lo, hi := 0, elems
		for mask := 1; mask < P; mask <<= 1 {
			peer := toReal(vr ^ mask)
			mid := (lo + hi) / 2
			var sendLo, sendHi, keepLo, keepHi int
			if vr&mask == 0 {
				keepLo, keepHi = lo, mid
				sendLo, sendHi = mid, hi
			} else {
				keepLo, keepHi = mid, hi
				sendLo, sendHi = lo, mid
			}
			sOff, sN := sendLo*es, (sendHi-sendLo)*es
			kOff, kN := keepLo*es, (keepHi-keepLo)*es
			if p.Rank < peer {
				t.P.SendSync(p, peer, mask, rbuf, sOff, sN)
				t.P.Recv(p, peer, mask, tmp, kOff, kN)
			} else {
				t.P.Recv(p, peer, mask, tmp, kOff, kN)
				t.P.SendSync(p, peer, mask, rbuf, sOff, sN)
			}
			mpi.ReduceBytes(op, dt, rbuf.Data[kOff:kOff+kN], tmp.Data[kOff:kOff+kN])
			p.ChargeCompute(kN)
			p.Dirty(rbuf)
			lo, hi = keepLo, keepHi
		}

		// Allgather by recursive doubling: spans double back up.
		for mask := P >> 1; mask >= 1; mask >>= 1 {
			peer := toReal(vr ^ mask)
			// Reconstruct the peer's span: it is the mirror of ours at
			// this halving depth.
			span := hi - lo
			var peerLo int
			if vr&mask == 0 {
				peerLo = lo + span
			} else {
				peerLo = lo - span
			}
			sOff, sN := lo*es, span*es
			rOff, rN := peerLo*es, span*es
			if p.Rank < peer {
				t.P.Send(p, peer, 4096+mask, rbuf, sOff, sN)
				t.P.Recv(p, peer, 4096+mask, rbuf, rOff, rN)
			} else {
				t.P.Recv(p, peer, 4096+mask, rbuf, rOff, rN)
				t.P.Send(p, peer, 4096+mask, rbuf, sOff, sN)
			}
			if peerLo < lo {
				lo = peerLo
			} else {
				hi = peerLo + span
			}
		}
	}
	t.foldOut(p, rbuf, n, tagB)
}

// SetOnMessage installs a message observer on the underlying p2p layer
// (used by the Table II message-distance accounting).
func (t *Tuned) SetOnMessage(f func(src, dst, n int)) { t.P.OnMessage = f }
