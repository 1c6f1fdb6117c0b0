package gxhc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const cacheLine = 64

// Waiter tuning: tightProbes polls without yielding, then up to a budget
// of probes that each yield the processor (spinBudget, which scales with
// the waited-on group's fan-in). Only after both phases does a waiter park
// on the flag's wait queue. The tight phase (under a microsecond) must
// outlast one cross-core handoff: a yield costs more than the handoff, and
// the waiter sees the peer's store only once the yield returns, so a short
// tight phase makes yields, not handoffs, set an op's latency (DESIGN.md
// §13, "Tight phase").
const (
	tightProbes = 1024
	spinProbes  = 192
	// spinScaleRef and spinScaleMax tune spinBudget: the budget is
	// spinProbes * clamp(spinScaleRef/fanin, 1, spinScaleMax). The scale
	// is deliberately modest — the spin phase's wall-time span must stay
	// well under a scheduler timeslice, because a spinning waiter that
	// outlasts one holds its OS thread busy through exactly the kernel
	// rotation that would have run the straggler it is waiting for
	// (measured as multi-millisecond single-op stalls at 32x budgets on
	// an oversubscribed host, against microsecond parking handoffs).
	spinScaleRef = 16
	spinScaleMax = 8
)

// spinBudget returns the yielding-probe budget a waiter gets before it
// parks, as a function of the group fan-in it is synchronizing with. The
// budget shrinks with fan-in: in a small group the expected wait is a
// handful of peers' store latencies, so staying in the spin phase (whose
// yields keep an oversubscribed writer schedulable) beats paying the
// parking handoff's scheduler wakeup on every tiny op — the P2 barrier
// parking cliff. In a wide group the tail waiter would burn a core (or,
// time-sliced, everyone else's slice) for the whole fan-in, so it parks
// after a modest budget and the writer's wake pays the handoff once.
//
// fanin <= 2 gets spinScaleMax (8x) spinProbes, halving with each
// doubling down to 1x at >= 16.
func spinBudget(fanin int) int {
	if fanin < 1 {
		fanin = 1
	}
	scale := spinScaleRef / fanin
	if scale < 1 {
		scale = 1
	} else if scale > spinScaleMax {
		scale = spinScaleMax
	}
	return spinProbes * scale
}

// spinLargeBytes is the payload size above which an op's flag waits drop
// to the parking floor regardless of fan-in. The fan-in-scaled budget
// models control-dominated ops whose expected wait is a few peer store
// latencies; once an op moves bulk data, a waiter is waiting for chunk
// copies/reductions measured in tens of microseconds, and yield-spinning
// through those steals scheduler slices from the very writer it is
// waiting on (measured 2x on oversubscribed 1 MiB broadcasts).
const spinLargeBytes = 32 << 10

// opBudget selects the spin budget for one op: the group's fan-in-scaled
// budget base when the payload is small, the parking floor (spinProbes)
// when the op moves bulk data. Barriers have no payload of their own and pass the
// rank's previous data-op size instead (viewSlot.lastBytes): a barrier
// right after a bulk op is waiting on stragglers still moving that
// payload, and its early finishers yield-storming through the copies is
// the same slice-stealing the payload cutoff exists to prevent.
func opBudget(base, nbytes int) int {
	if nbytes >= spinLargeBytes {
		return spinProbes
	}
	return base
}

// flagLine is one monotonic synchronization counter laid out so that its
// single writer never false-shares with anything else: the hot half (the
// counter plus the parked indicator) fills one cache line, and the cold
// parking half (mutex + waiter list, touched only when someone actually
// parks) fills a second. Dense arrays of flagLines replace the old
// map[int]*atomic.Uint64 control maps: `acks[slot]`, `red[slot]` — one
// 128-byte record per member slot, one writer per record, array indexing
// instead of map lookups on the hot path.
//
// The counter is single-writer (plain store, no read-modify-write), the
// discipline the paper's Section III-E argues for; waking parked readers
// needs no RMW on the flag itself either — the writer re-checks the parked
// indicator after publishing, and the waiter re-checks the value after
// publishing its parked indicator (the Dekker store/load handshake), so a
// wakeup can never be missed. The indicator is the lowest value a parked
// waiter wants (0: none parked), so a store that satisfies no one wakes no
// one: a leader parked on a reducer's whole slice sleeps through the
// reducer's per-chunk progress stores.
type flagLine struct {
	v      atomic.Uint64
	parked atomic.Uint64
	_      [cacheLine - 16]byte
	cold   flagCold
}

// flagCold is the parking half of a flagLine: only touched once a waiter
// has exhausted its spin budget, so it lives on its own line and keeps the
// mutex off the counter's line. The wait queue is an intrusive singly
// linked list of per-rank parkNodes — registration pushes a node the rank
// already owns, so parking never allocates, not even the first time a
// given flag sees a parked waiter.
type flagCold struct {
	mu   sync.Mutex
	head *parkNode
	_    [cacheLine - 16]byte
}

// parkNode is one rank's wait-queue entry, allocated once at New. The
// one-token channel is what the rank blocks on; next links it into the
// flag it is currently parked under. A rank waits on at most one flag at
// a time, and the node is always unlinked before the rank's wait returns
// (either by the waker detaching the whole list, or by the waiter's own
// early-exit unlink), so one node per rank suffices.
type parkNode struct {
	ch   chan struct{}
	next *parkNode
}

func (f *flagLine) load() uint64 { return f.v.Load() }

// set publishes v. flagLine counters are single-writer and monotonic, so a
// plain atomic store suffices; the parked re-check after the store is the
// writer's half of the Dekker handshake with wait.
func (f *flagLine) set(v uint64) {
	f.v.Store(v)
	if w := f.parked.Load(); w != 0 && v >= w {
		f.wake()
	}
}

// wake hands one token to every parked node and detaches the whole list.
// Tokens are non-blocking sends into each waiter's buffered park channel:
// a waiter that already gave up and unlinked itself merely collects a
// stale token, which its next wait drains before re-registering. Every
// node is detached (next cleared) before its token is sent, preserving
// the invariant that a node whose owner is runnable is on no list.
func (f *flagLine) wake() {
	c := &f.cold
	c.mu.Lock()
	f.parked.Store(0)
	for n := c.head; n != nil; {
		nx := n.next
		n.next = nil
		select {
		case n.ch <- struct{}{}:
		default:
		}
		n = nx
	}
	c.head = nil
	c.mu.Unlock()
}

// unlink removes n from f's wait queue if it is still there (the waker may
// have detached the whole list concurrently — then there is nothing to
// do, and the stale token it sent is drained by n's next wait).
func (f *flagLine) unlink(n *parkNode) {
	c := &f.cold
	c.mu.Lock()
	for p := &c.head; *p != nil; p = &(*p).next {
		if *p == n {
			*p = n.next
			n.next = nil
			break
		}
	}
	c.mu.Unlock()
}

// wait blocks rank until f reaches at least v and returns the observed
// value. Phase 1 spins: tightProbes plain probes, then budget yielding
// probes (from spinBudget of the group's fan-in); phase 2 parks on the
// flag's wait queue.
func (c *Comm) wait(f *flagLine, v uint64, rank, budget int) uint64 {
	for i := 0; i < tightProbes+budget; i++ {
		if got := f.v.Load(); got >= v {
			return got
		}
		if i >= tightProbes {
			runtime.Gosched()
		}
	}
	n := &c.park[rank]
	for {
		// Drain a stale token left by an earlier wait that was satisfied
		// between registering and parking.
		select {
		case <-n.ch:
		default:
		}
		cold := &f.cold
		cold.mu.Lock()
		if got := f.v.Load(); got >= v {
			cold.mu.Unlock()
			return got
		}
		n.next = cold.head
		cold.head = n
		if w := f.parked.Load(); w == 0 || v < w {
			f.parked.Store(v)
		}
		cold.mu.Unlock()
		// Dekker re-check: the writer may have stored the value before it
		// loaded our parked indicator. It re-reads parked after its store;
		// we re-read the value after publishing parked — at least one side
		// must see the other. On this early exit the node must be taken
		// back off the queue (a rank's single node may not be left behind
		// on a flag it is no longer waiting on).
		if got := f.v.Load(); got >= v {
			f.unlink(n)
			return got
		}
		<-n.ch
		// The only sender is wake, which detaches every node before
		// handing it a token, so the node is off the list here.
		if got := f.v.Load(); got >= v {
			return got
		}
	}
}
