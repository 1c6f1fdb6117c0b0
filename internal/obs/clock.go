package obs

import "unsafe"

// OpClock is the segment clock every instrumented collective runs on, on
// both backends (virtual time on the simulator, wall time on gxhc). Each
// mark closes the interval from the previous mark (or the op start) to
// now and books it to the given phase, and Finish ends the op at the last
// mark, so the phase durations of the op's flight record sum to End-Start
// exactly, by construction: no gaps, no overlaps, no tail.
//
// It feeds two sinks: the span tracer (when tracing) on the rank's tracer
// lane, and the recorder, which gets one compact FlightRecord per op on
// the rank's flight lane. Flight lanes are ranks; a simulated world's
// tracer lanes are cores (Clocks maps one to the other). A nil *OpClock is
// a no-op on every method.
type OpClock struct {
	cs    *clockSink
	lane  int   // tracer lane
	rank  int32 // flight lane
	op    OpCode
	seq   uint64
	bytes int64
	lvls  uint8
	chnks uint16
	// net marks a cluster-level network op (a node leader's NIC staging +
	// fabric exchange): Finish commits through RecordNet, whose records
	// ride their own kind and seq stream.
	net bool

	start int64
	last  int64
	durs  [NPhases]int64
}

// Clocks is one communicator's per-rank pool of OpClocks plus the sinks
// they feed. Each rank runs one op at a time, so Start recycles the rank's
// slot and the record path stays allocation-free. A nil *Clocks (nothing
// attached) hands out nil clocks, so an uninstrumented op costs one
// pointer compare and perturbs no timing.
type Clocks struct {
	clockSink
	pool []clockSlot
}

// clockSink is what a running OpClock writes to. It is apart from Clocks
// so that OpClock's size does not depend on the pool's slot type.
type clockSink struct {
	t     *Tracer
	rec   *OpRecorder
	now   func() int64
	lanes []int // tracer lane of each rank; nil is the identity
}

// clockSlot pads a rank's clock to whole 64-byte cache lines: every mark
// writes the clock, so neighbouring ranks' clocks should not share a line.
type clockSlot struct {
	OpClock
	_ [(64 - unsafe.Sizeof(OpClock{})%64) % 64]byte
}

// NewClocks pools clocks for ranks ranks feeding t and rec (either may be
// nil; with both nil it returns nil). lanes maps a rank to its tracer lane
// (nil: the rank itself). The time source is the tracer's clock, else the
// recorder's, else a wall clock started now.
func NewClocks(t *Tracer, rec *OpRecorder, ranks int, lanes []int) *Clocks {
	if t == nil && rec == nil {
		return nil
	}
	cs := &Clocks{clockSink: clockSink{t: t, rec: rec, lanes: lanes}, pool: make([]clockSlot, ranks)}
	switch {
	case t != nil:
		cs.now = t.Now
	case rec.Now != nil:
		cs.now = rec.Now
	default:
		cs.now = WallClock()
	}
	return cs
}

// Now reads the pool's clock (0 when nothing is attached).
func (cs *Clocks) Now() int64 {
	if cs == nil {
		return 0
	}
	return cs.now()
}

// lane returns rank's tracer lane.
func (cs *clockSink) lane(rank int) int {
	if cs.lanes == nil {
		return rank
	}
	return cs.lanes[rank]
}

// Start begins attributing rank's next op. bytes is the op's payload size
// (per-rank block size for the v-collectives) and levels the hierarchy
// depth, both carried into the flight record.
func (cs *Clocks) Start(rank int, op OpCode, seq uint64, bytes int64, levels int) *OpClock {
	if cs == nil {
		return nil
	}
	c := &cs.pool[rank].OpClock
	now := cs.now()
	*c = OpClock{
		cs: &cs.clockSink, lane: cs.lane(rank), rank: int32(rank), op: op, seq: seq,
		bytes: bytes, lvls: uint8(levels), start: now, last: now,
	}
	return c
}

// StartNet is Start for a cluster leader's network op, recorded through
// RecordNet. It reuses the rank's slot: fabric work runs strictly outside
// the rank's intra-node ops.
func (cs *Clocks) StartNet(rank int, op OpCode, seq uint64, bytes int64) *OpClock {
	c := cs.Start(rank, op, seq, bytes, 0)
	if c != nil {
		c.net = true
	}
	return c
}

// Mark closes the segment since the previous mark as phase ph at the given
// hierarchy level (-1 when the segment spans levels).
func (c *OpClock) Mark(level int, ph Phase, bytes int64) {
	c.MarkFrom(level, ph, bytes, -1)
}

// MarkFrom is Mark with an explicit causal parent: wait segments pass the
// rank whose flag write releases this one (-1 when unknown), giving the
// span graph its cross-lane critical-path edges. Zero-length segments are
// dropped from the trace, but chunk-copy marks still count toward the
// record's chunk tally.
func (c *OpClock) MarkFrom(level int, ph Phase, bytes int64, from int) {
	if c == nil {
		return
	}
	now := c.cs.now()
	if now > c.last {
		c.durs[ph] += now - c.last
		if t := c.cs.t; t != nil {
			if from >= 0 {
				from = c.cs.lane(from)
			}
			t.RecordLinked(c.lane, level, ph, c.op.String(), c.seq, c.last, now, bytes, from)
		}
	}
	if ph == PhaseChunkCopy && bytes > 0 && c.chnks < ^uint16(0) {
		c.chnks++
	}
	c.last = now
}

// Finish ends the op at its last mark: it records the umbrella collective
// span and commits the flight record.
func (c *OpClock) Finish() {
	if c == nil {
		return
	}
	if t := c.cs.t; t != nil {
		t.Record(c.lane, -1, PhaseCollective, c.op.String(), c.seq, c.start, c.last, c.bytes)
	}
	rec := c.cs.rec
	if rec == nil {
		return
	}
	fr := FlightRecord{
		Seq: c.seq, Start: c.start, End: c.last, Bytes: c.bytes,
		Phase: c.durs, Lane: c.rank, Chunks: c.chnks, Levels: c.lvls, Op: c.op,
	}
	if c.net {
		rec.RecordNet(fr)
	} else {
		rec.RecordFlight(fr)
	}
}

// Request records one completed non-blocking request of rank, numbered seq
// in the rank's request stream: issued at issued, popped for service at
// svcStart (0 if never), done now. The record's queue-wait phase is the
// queued share; with tracing on, the queue wait and the request's whole
// lifetime become spans. It records nothing without a recorder.
func (cs *Clocks) Request(rank int, seq uint64, issued, svcStart, bytes int64) {
	if cs == nil || cs.rec == nil {
		return
	}
	end := cs.now()
	q := svcStart - issued
	if q < 0 || svcStart == 0 {
		q = 0
	}
	fr := FlightRecord{
		Seq: seq, Start: issued, End: end, Bytes: bytes,
		Lane: int32(rank), Op: OpRequest,
	}
	fr.Phase[PhaseQueueWait] = q
	cs.rec.RecordRequest(fr)
	if t := cs.t; t != nil {
		lane := cs.lane(rank)
		if q > 0 {
			t.Record(lane, -1, PhaseQueueWait, "request", seq, issued, issued+q, bytes)
		}
		t.Record(lane, -1, PhaseCollective, "request", seq, issued, end, bytes)
	}
}

// NoteInflight, CountFuseAbort and CountFusedBatch pass a request lane's
// counters on to the recorder; without one they record nothing.
func (cs *Clocks) NoteInflight(cur int64) {
	if cs != nil && cs.rec != nil {
		cs.rec.NoteInflight(cur)
	}
}

func (cs *Clocks) CountFuseAbort() {
	if cs != nil && cs.rec != nil {
		cs.rec.CountFuseAbort()
	}
}

func (cs *Clocks) CountFusedBatch(k int, bytes int64) {
	if cs != nil && cs.rec != nil {
		cs.rec.CountFusedBatch(k, bytes)
	}
}
