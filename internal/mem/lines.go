package mem

import (
	"fmt"

	"xhc/internal/sim"
)

// Line models the coherence behaviour of one cache line holding
// synchronization state. It tracks which cache domains hold the current
// version, serializes concurrent fetches at the holder point (fan-in
// queueing), and makes atomic read-modify-writes mutually exclusive.
//
// Several flags may share a Line (the paper's Fig. 10 "shared" scheme);
// a write to any of them invalidates the whole line for all readers.
type Line struct {
	sys  *System
	home int // core that owns/writes the line (flag allocation home)

	version    uint64
	holders    map[domainKey]uint64
	holderCore int // core whose cache holds the authoritative copy
	queue      Queue

	waiters []sim.Waiter
}

// NewLine allocates a coherence line homed at (owned by) the given core.
func (s *System) NewLine(home int) *Line {
	s.Stats.LinesAllocated++
	return &Line{
		sys:        s,
		home:       home,
		holders:    make(map[domainKey]uint64),
		holderCore: home,
	}
}

// Home returns the owning core.
func (l *Line) Home() int { return l.home }

// holdsLocal reports whether core's innermost cache (its LLC group on
// Epyc, its private L2 on the mesh platform) has the line's current
// version — the only case that costs just a local hit. An SLC-resident
// line still requires a mesh round-trip.
func (l *Line) holdsLocal(core int) bool {
	d := l.sys.coreDomains(core)[0]
	v, ok := l.holders[d]
	return ok && v == l.version
}

// fetchLatency is the transfer time of a line fetch by core from the
// current holder point.
func (l *Line) fetchLatency(core int) sim.Duration {
	p := &l.sys.Params
	if l.sys.Topo.HasSharedLLC() {
		d := l.sys.Topo.Distance(core, l.holderCore)
		return p.LineTransfer[d]
	}
	// Mesh/SLC platform: fetches route through the SLC slice at the
	// line's home socket.
	lat := p.LineSLCTransfer
	if l.sys.Topo.Socket(core) != l.sys.Topo.Socket(l.home) {
		lat += p.SocketHopLat
	}
	return lat
}

// markHolder records that core's caches now hold the current version
// (after a fetch, every level on the path keeps a copy).
func (l *Line) markHolder(core int) {
	for _, d := range l.sys.coreDomains(core) {
		l.holders[d] = l.version
	}
}

// markOwnerStore records the post-store state: only the writer's innermost
// cache holds the new version (a store does not push the line outward).
func (l *Line) markOwnerStore(core int) {
	l.holders[l.sys.coreDomains(core)[0]] = l.version
}

// Read charges p (on core) for reading the line. Concurrent missing
// readers queue at the line; a reader whose shared cache (LLC, or SLC on
// mesh platforms) already has the current version pays only a local hit —
// the implicit hardware assistance behind the paper's Fig. 10.
func (l *Line) Read(p *sim.Proc, core int) {
	if l.holdsLocal(core) {
		l.sys.Stats.LineHits++
		p.Sleep(l.sys.Params.LineLocalHit)
		return
	}
	l.sys.Stats.LineFetches++
	wait := l.queue.Acquire(p, l.sys.Params.LineService)
	l.sys.Stats.QueueWaitPS += wait
	p.Sleep(l.fetchLatency(core))
	l.markHolder(core)
}

// sharedBeyond reports whether any cache domain other than core's holds a
// copy of the line (stale or current) that a store must invalidate.
func (l *Line) sharedBeyond(core int) bool {
	own := map[domainKey]bool{}
	for _, d := range l.sys.coreDomains(core) {
		own[d] = true
	}
	for d := range l.holders {
		if !own[d] {
			return true
		}
	}
	return false
}

// Write charges p for the owner's store to the line, invalidates all other
// holders, and wakes any waiters so they can re-read.
func (l *Line) Write(p *sim.Proc, core int) {
	cost := l.sys.Params.WriteLocal
	if len(l.waiters) > 0 || l.sharedBeyond(core) {
		cost = l.sys.Params.WriteShared
	}
	p.Sleep(cost)
	l.version++
	clear(l.holders)
	l.holderCore = core
	l.markOwnerStore(core)
	l.wakeWaiters()
}

// FetchAdd charges p for an atomic read-modify-write on the line: it
// queues for exclusive ownership (RMWService per op) and pays the
// ownership-transfer latency from the previous holder. This is the
// mechanism behind the paper's Fig. 4 atomics collapse.
func (l *Line) FetchAdd(p *sim.Proc, core int) {
	l.sys.Stats.LineRMWs++
	transfer := l.fetchLatency(core)
	if l.holdsLocal(core) && l.holderCore == core {
		transfer = l.sys.Params.LineLocalHit
	}
	wait := l.queue.Acquire(p, l.sys.Params.RMWService)
	l.sys.Stats.QueueWaitPS += wait
	p.Sleep(transfer)
	l.version++
	clear(l.holders)
	l.holderCore = core
	l.markOwnerStore(core)
	l.wakeWaiters()
}

// ReadBatch charges p (on core) for reading several independent lines
// back to back. Hardware overlaps the misses (memory-level parallelism),
// so the total cost is the serial local-hit work plus the *longest* fetch
// rather than the sum — the model behind leaders gathering many members'
// flags at once.
func (s *System) ReadBatch(p *sim.Proc, core int, lines []*Line) {
	var serial, maxFetch sim.Duration
	now := p.Now()
	for _, l := range lines {
		if l.holdsLocal(core) {
			s.Stats.LineHits++
			serial += s.Params.LineLocalHit
			continue
		}
		s.Stats.LineFetches++
		// Queue at the line without sleeping; overlap transfers.
		start := now
		if l.queue.nextFree > start {
			start = l.queue.nextFree
		}
		l.queue.nextFree = start + s.Params.LineService
		wait := start - now + s.Params.LineService + l.fetchLatency(core)
		s.Stats.QueueWaitPS += start - now
		if wait > maxFetch {
			maxFetch = wait
		}
		l.markHolder(core)
	}
	p.Sleep(serial + maxFetch)
}

// AddWaiter registers p to be woken after the next write to the line.
// The caller must call Suspend immediately after (with no intervening
// blocking operation); the registration is bound to that next suspension,
// so a wake can never hit an unrelated wait.
func (l *Line) AddWaiter(p *sim.Proc) {
	l.waiters = append(l.waiters, p.Waiter())
	l.sys.Stats.LineWaits++
	if n := len(l.waiters); n > l.sys.Stats.MaxLineWaiters {
		l.sys.Stats.MaxLineWaiters = n
	}
}

// wakeWaiters schedules every registered waiter to re-check shortly after
// the store becomes visible.
func (l *Line) wakeWaiters() {
	if len(l.waiters) == 0 {
		return
	}
	l.sys.Eng.WakeAll(l.waiters, l.sys.Eng.Now()+l.sys.Params.NotifyDelay)
	// Scheduling a wake runs no process, so the list is reused.
	clear(l.waiters)
	l.waiters = l.waiters[:0]
}

// String aids debugging.
func (l *Line) String() string {
	return fmt.Sprintf("line@core%d v%d holders=%d", l.home, l.version, len(l.holders))
}
