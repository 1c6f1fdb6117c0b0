package mpi

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/shm"
	"xhc/internal/xpmem"
)

// Mechanism selects the transport under the point-to-point layer — the
// role of OpenMPI's SMSC framework in the paper's Fig. 3 experiment.
type Mechanism string

// Available mechanisms.
const (
	// XPMEM: receiver attaches to the sender's buffer (registration
	// cached) and copies with plain loads/stores — single copy.
	XPMEM Mechanism = "xpmem"
	// CMA: process_vm_readv-style kernel copy; per-call syscall plus a
	// contended kernel lock — single copy, no mapping reuse.
	CMA Mechanism = "cma"
	// KNEM: kernel copy via a declared region cookie; cheaper lock than
	// CMA but still a syscall per operation.
	KNEM Mechanism = "knem"
	// CICO: no single-copy support; large messages are pipelined through
	// the shared ring with two copies per byte.
	CICO Mechanism = "cico"
)

// Config tunes the p2p layer.
type Config struct {
	Mechanism Mechanism
	// EagerThreshold: messages <= this go through the shared ring
	// (copy-in-copy-out); larger ones use the rendezvous protocol.
	EagerThreshold int
	// ChunkBytes is the CICO pipelining granule.
	ChunkBytes int
	// RingBytes is the per-channel shared ring capacity.
	RingBytes int
	// RegCache enables the XPMEM registration cache (paper default: on).
	RegCache bool
}

// DefaultConfig mirrors common OpenMPI settings.
func DefaultConfig() Config {
	return Config{
		Mechanism:      XPMEM,
		EagerThreshold: 4 << 10,
		ChunkBytes:     32 << 10,
		RingBytes:      128 << 10,
		RegCache:       true,
	}
}

// P2P is the point-to-point transport: per-pair channels with tag
// matching, created lazily on first use.
type P2P struct {
	W   *env.World
	Cfg Config

	chans  map[chanKey]*channel
	caches []*xpmem.Cache

	// OnMessage, when set, observes every completed message (used for the
	// Table II message-distance accounting).
	OnMessage func(src, dst, bytes int)
}

type chanKey struct{ src, dst int }

// message is one matched transfer descriptor in a channel's FIFO.
type message struct {
	tag      int
	size     int
	handle   xpmem.Handle // rendezvous: sender's exposed buffer
	srcOff   int
	consumed bool
}

// channel is the unidirectional src->dst structure in shared memory.
type channel struct {
	src, dst int

	// posted counts descriptors published by the sender; the receiver
	// waits on it. Single-writer: sender.
	posted *shm.Flag
	// done counts messages fully received; the sender's rendezvous
	// completion and eager flow control wait on it. Single-writer: receiver.
	done *shm.Flag
	// ring is the shared eager staging buffer, homed at the sender.
	ring *mem.Buffer
	// stream is the CICO pipelining ring for large messages, kept separate
	// from the eager slots so the two cannot overwrite each other.
	stream *mem.Buffer
	// wrBytes / rdBytes are cumulative byte counters into the ring for
	// pipelined CICO transfers.
	wrBytes *shm.Flag
	rdBytes *shm.Flag

	queue     []message
	nConsumed int
	sendSeq   uint64
	ringWr    uint64 // sender-local cumulative bytes staged
	ringRd    uint64 // receiver-local cumulative bytes drained
}

// NewP2P creates the transport for a world.
func NewP2P(w *env.World, cfg Config) *P2P {
	if cfg.EagerThreshold <= 0 {
		cfg.EagerThreshold = 4 << 10
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 32 << 10
	}
	if cfg.RingBytes < cfg.EagerThreshold {
		cfg.RingBytes = max(cfg.EagerThreshold, cfg.ChunkBytes) * 4
	}
	p := &P2P{W: w, Cfg: cfg, chans: make(map[chanKey]*channel)}
	p.caches = make([]*xpmem.Cache, w.N)
	for r := range p.caches {
		p.caches[r] = xpmem.NewCache(w.Sys, 0, cfg.RegCache)
	}
	return p
}

// Cache returns rank's registration cache (for hit-ratio reporting).
func (p *P2P) Cache(rank int) *xpmem.Cache { return p.caches[rank] }

// channelFor returns (creating lazily) the src->dst channel. Channel
// creation is communicator-setup work and charges no model time.
func (p *P2P) channelFor(src, dst int) *channel {
	k := chanKey{src, dst}
	if c, ok := p.chans[k]; ok {
		return c
	}
	sc := p.W.Core(src)
	dc := p.W.Core(dst)
	c := &channel{
		src:     src,
		dst:     dst,
		posted:  shm.NewFlag(p.W.Sys, fmt.Sprintf("p2p.%d>%d.posted", src, dst), sc),
		done:    shm.NewFlag(p.W.Sys, fmt.Sprintf("p2p.%d>%d.done", src, dst), dc),
		ring:    p.W.Sys.NewBuffer(fmt.Sprintf("p2p.%d>%d.ring", src, dst), sc, p.Cfg.RingBytes),
		stream:  p.W.Sys.NewBuffer(fmt.Sprintf("p2p.%d>%d.stream", src, dst), sc, p.Cfg.RingBytes),
		wrBytes: shm.NewFlag(p.W.Sys, fmt.Sprintf("p2p.%d>%d.wr", src, dst), sc),
		rdBytes: shm.NewFlag(p.W.Sys, fmt.Sprintf("p2p.%d>%d.rd", src, dst), dc),
	}
	p.chans[k] = c
	return c
}

// Send transmits buf[off:off+n] to rank dst with the given tag. Eager
// sends return once the payload is staged; rendezvous sends block until
// the receiver has drained the data (synchronous-send semantics, which is
// what tree collectives need for correctness anyway).
func (p *P2P) Send(ep *env.Proc, dst, tag int, buf *mem.Buffer, off, n int) {
	if dst == ep.Rank {
		panic("mpi: self-send not supported")
	}
	c := p.channelFor(ep.Rank, dst)
	c.sendSeq++
	seq := c.sendSeq

	if n <= p.Cfg.EagerThreshold {
		// Flow control: keep at most ring/threshold eager messages in
		// flight; wait for the receiver to consume older ones.
		slots := uint64(p.Cfg.RingBytes / max(1, p.Cfg.EagerThreshold))
		if slots < 1 {
			slots = 1
		}
		if seq > slots {
			c.done.WaitGE(ep.S, ep.Core, seq-slots)
		}
		slot := int((seq-1)%slots) * p.Cfg.EagerThreshold
		ep.Copy(c.ring, slot, buf, off, n)
		c.queue = append(c.queue, message{tag: tag, size: n, srcOff: slot})
		c.posted.Set(ep.S, ep.Core, seq)
		return
	}

	switch p.Cfg.Mechanism {
	case XPMEM, CMA, KNEM:
		// Non-blocking rendezvous (isend-like): post the descriptor and
		// return; the window of one outstanding message per channel both
		// bounds state and guarantees the receiver drained the previous
		// buffer exposure before we replace it. Tree algorithms rely on
		// this to drain multiple children in parallel.
		if seq > 1 {
			c.done.WaitGE(ep.S, ep.Core, seq-1)
		}
		c.queue = append(c.queue, message{tag: tag, size: n, handle: xpmem.Expose(buf), srcOff: off})
		c.posted.Set(ep.S, ep.Core, seq)
	case CICO:
		c.queue = append(c.queue, message{tag: tag, size: n, srcOff: -1})
		c.posted.Set(ep.S, ep.Core, seq)
		// Pipelined copy-in through the shared ring.
		ring := uint64(p.Cfg.RingBytes)
		written := 0
		for written < n {
			chunk := min(p.Cfg.ChunkBytes, n-written)
			// Wait for ring space.
			need := c.ringWr + uint64(chunk)
			if need > ring {
				c.rdBytes.WaitGE(ep.S, ep.Core, need-ring)
			}
			slot := int(c.ringWr % ring)
			chunk = min(chunk, int(ring)-slot) // no wraparound copies
			ep.Copy(c.stream, slot, buf, off+written, chunk)
			written += chunk
			c.ringWr += uint64(chunk)
			c.wrBytes.Set(ep.S, ep.Core, c.ringWr)
		}
		c.done.WaitGE(ep.S, ep.Core, seq)
	default:
		panic(fmt.Sprintf("mpi: unknown mechanism %q", p.Cfg.Mechanism))
	}
}

// Recv receives a message with the given tag from rank src into
// buf[off:off+n]. The message size must be exactly n (collectives always
// know sizes).
func (p *P2P) Recv(ep *env.Proc, src, tag int, buf *mem.Buffer, off, n int) {
	if src == ep.Rank {
		panic("mpi: self-recv not supported")
	}
	c := p.channelFor(src, ep.Rank)

	// Find the first unconsumed matching descriptor, waiting for more
	// descriptors to be posted as needed.
	var msg *message
	for {
		for i := range c.queue {
			m := &c.queue[i]
			if !m.consumed && m.tag == tag {
				msg = m
				break
			}
		}
		if msg != nil {
			break
		}
		c.posted.WaitGE(ep.S, ep.Core, uint64(len(c.queue)+1))
	}
	if msg.size != n {
		panic(fmt.Sprintf("mpi: recv size mismatch: posted %d, expected %d (tag %d, %d->%d)",
			msg.size, n, tag, src, ep.Rank))
	}
	msg.consumed = true
	c.nConsumed++

	switch {
	case msg.srcOff >= 0 && !msg.handle.Valid():
		// Eager: single staged copy out of the ring.
		ep.Copy(buf, off, c.ring, msg.srcOff, n)
	case msg.handle.Valid():
		p.rendezvousRecv(ep, c, msg, buf, off, n)
	default:
		// CICO pipelined drain.
		ring := uint64(p.Cfg.RingBytes)
		read := 0
		for read < n {
			chunk := min(p.Cfg.ChunkBytes, n-read)
			slot := int(c.ringRd % ring)
			chunk = min(chunk, int(ring)-slot)
			c.wrBytes.WaitGE(ep.S, ep.Core, c.ringRd+uint64(chunk))
			ep.Copy(buf, off+read, c.stream, slot, chunk)
			read += chunk
			c.ringRd += uint64(chunk)
			c.rdBytes.Set(ep.S, ep.Core, c.ringRd)
		}
	}
	c.done.Set(ep.S, ep.Core, uint64(c.nConsumed))
	if p.OnMessage != nil {
		p.OnMessage(src, ep.Rank, n)
	}
}

// rendezvousRecv performs the single-copy drain of a rendezvous message.
func (p *P2P) rendezvousRecv(ep *env.Proc, c *channel, msg *message, buf *mem.Buffer, off, n int) {
	switch p.Cfg.Mechanism {
	case XPMEM:
		cache := p.caches[ep.Rank]
		srcBuf := cache.Attach(ep.S, msg.handle)
		ep.Copy(buf, off, srcBuf, msg.srcOff, n)
		cache.Release(ep.S, msg.handle)
	case CMA:
		ep.S.Sleep(p.W.Sys.Params.SyscallCost)
		// CMA holds its mm lock across the whole copy (the coarse kernel
		// locking whose contention the paper's Section II-B describes):
		// concurrent callers serialize behind the full transfer.
		p.W.Sys.CMALock.Acquire(ep.S, p.W.Sys.Params.CMALockService)
		p.W.Sys.KernelCopy(ep.S, ep.Core, buf, off, msg.handle.Buffer(), msg.srcOff, n)
		p.W.Sys.CMALock.HoldUntil(ep.S.Now())
	case KNEM:
		ep.S.Sleep(p.W.Sys.Params.SyscallCost)
		p.W.Sys.KNEMLock.Acquire(ep.S, p.W.Sys.Params.KNEMLockService)
		p.W.Sys.KernelCopy(ep.S, ep.Core, buf, off, msg.handle.Buffer(), msg.srcOff, n)
	default:
		panic(fmt.Sprintf("mpi: rendezvous under mechanism %q", p.Cfg.Mechanism))
	}
}

// SendSync is Send with synchronous-send semantics: for rendezvous
// messages it additionally blocks until the receiver has drained the
// data, so the caller may immediately overwrite buf. Exchange patterns
// (recursive doubling, Rabenseifner) need this; tree forwarding does not.
func (p *P2P) SendSync(ep *env.Proc, dst, tag int, buf *mem.Buffer, off, n int) {
	p.Send(ep, dst, tag, buf, off, n)
	c := p.channelFor(ep.Rank, dst)
	if n > p.Cfg.EagerThreshold {
		c.done.WaitGE(ep.S, ep.Core, c.sendSeq)
	}
}
