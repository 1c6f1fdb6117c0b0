package obs

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Straggler-detector defaults: an operation step is anomalous when the
// spread of rank start times (or a single rank's latency) exceeds
// DefaultStragglerK times the step's median latency, with an absolute
// floor so microsecond-scale noise on tiny operations never trips it.
const (
	DefaultStragglerK       = 4.0
	DefaultStragglerFloorUS = 20.0
)

// OpRecorder is one world's live telemetry sink: the always-on flight
// recorder, per-lane latency histograms, and the straggler detector. It is
// created for every observed world (simulated or gxhc); with no registry
// installed the instrumented code paths cost one nil check, exactly like
// the tracer.
//
// Lane discipline mirrors the Tracer: each lane (rank) is written by a
// single goroutine, so histogram observation takes no lock; the flight
// ring and the detector carry their own cheap mutexes so gxhc's real
// goroutines and anomaly dumps stay race-free.
type OpRecorder struct {
	reg   *Registry
	label string
	// Backend labels histograms fed by the instrumented communicator
	// itself via RecordFlight ("xhc" for simulated worlds, "gxhc" for the
	// goroutine-backed library). Harness-level observations pass their own
	// backend label to ObserveOp.
	Backend    string
	TicksPerUS float64
	// Now reads the recorder's clock (the engine's virtual clock for
	// simulated worlds, a wall clock for gxhc).
	Now func() int64

	flight *Flight
	lanes  []recLane
	det    stragglerDetector
	// crit is the always-on critical-path accumulator: it regroups the
	// flight records of each operation step and, when the step closes,
	// attributes the critical (last-finishing) lane's phase breakdown to
	// per-edge blame counters and histograms. Same step discipline as the
	// straggler detector, same zero-alloc reused buffers.
	crit critAccum
	// node is the cluster node/shard id stamped into every record (0 for
	// single-node worlds); set once via SetNode before the run.
	node int16
	// backendNet labels the histograms of cluster-level network records
	// (RecordNet), derived lazily from Backend ("xhc" -> "xhc-net").
	backendNet string
	// Fusion counters (request-layer fusion path; counted on rank 0 like
	// Comm.Ops, so one count per collective op, not per rank).
	fusionBatches atomic.Int64
	fusionOps     atomic.Int64
	fusionBytes   atomic.Int64
	fuseAborts    atomic.Int64
	// maxInflight is the high-water mark of concurrently in-flight
	// non-blocking requests observed via NoteInflight.
	maxInflight atomic.Int64
	// quiesceDumps suppresses the straggler detector's flight dumps (the
	// straggler counter still advances). Allocation gates set it around
	// their measured window: the gate itself provokes a GC pause that can
	// manufacture a straggler, and the resulting dump is a deliberately
	// heavyweight diagnostic, not a steady-state op-path allocation.
	quiesceDumps atomic.Bool

	mu    sync.Mutex
	token string

	// folded tracks what previous folds already contributed to the
	// registry, so a mid-run World.Sync and the eventual World.Finish each
	// fold only the increment since the last fold (foldInto/foldCritInto).
	folded foldedState
}

type recLane struct {
	hists map[HistKey]*Histogram
}

// foldedState is the cumulative state as of the recorder's last fold into
// the registry. Histograms are value snapshots (Buckets is a fixed array);
// tick-derived totals are kept in the nanosecond unit they were folded in,
// so repeated folds sum to exactly what a single final fold would have
// contributed (ticksToNS truncates — subtracting already-folded NS instead
// of converting tick deltas keeps Sync+Finish byte-identical to
// Finish-only).
type foldedState struct {
	hists     map[HistKey]Histogram
	blameNS   [NEdges]int64
	critHists [NEdges]Histogram
	critOps   int64
	pathNS    int64

	fusionBatches int64
	fusionOps     int64
	fusionBytes   int64
	fuseAborts    int64
}

// histDelta returns the increment cur has accumulated since prev. Count,
// SumNS and Buckets subtract exactly; MaxNS stays cur's running maximum —
// Histogram.Merge takes the larger side, so re-merging a maximum already
// folded is idempotent.
func histDelta(cur, prev Histogram) Histogram {
	d := cur
	d.Count -= prev.Count
	d.SumNS -= prev.SumNS
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	return d
}

func newOpRecorder(reg *Registry, label string, lanes, flightCap int, ticksPerUS float64, now func() int64) *OpRecorder {
	r := &OpRecorder{
		reg:        reg,
		label:      label,
		Backend:    "xhc",
		TicksPerUS: ticksPerUS,
		Now:        now,
		flight:     NewFlight(lanes, flightCap, ticksPerUS),
		lanes:      make([]recLane, lanes),
	}
	r.det.k = DefaultStragglerK
	r.det.floor = int64(DefaultStragglerFloorUS * ticksPerUS)
	return r
}

// Flight returns the world's flight recorder.
func (r *OpRecorder) Flight() *Flight { return r.flight }

// SetReplayToken attaches the xhcverify cfgseed:schedseed pair to every
// dump this recorder produces, so a forensic dump always names the run
// that can replay it bit-exactly.
func (r *OpRecorder) SetReplayToken(tok string) {
	r.mu.Lock()
	r.token = tok
	r.mu.Unlock()
}

// SetStragglerThreshold overrides the detector's k multiplier and
// absolute floor (in microseconds). Call before the run starts.
func (r *OpRecorder) SetStragglerThreshold(k, floorUS float64) {
	r.det.mu.Lock()
	r.det.k = k
	r.det.floor = int64(floorUS * r.TicksPerUS)
	r.det.mu.Unlock()
}

// ticksToNS converts recorder ticks to nanoseconds (the histogram unit).
func (r *OpRecorder) ticksToNS(t int64) int64 {
	if t <= 0 {
		return 0
	}
	return int64(float64(t) * 1e3 / r.TicksPerUS)
}

// observeLane folds one duration into the lane's (op, size, backend)
// histogram. Allocation-free once the key exists.
func (r *OpRecorder) observeLane(lane int, key HistKey, ns int64) {
	if lane < 0 || lane >= len(r.lanes) {
		return
	}
	l := &r.lanes[lane]
	h := l.hists[key]
	if h == nil {
		if l.hists == nil {
			l.hists = make(map[HistKey]*Histogram)
		}
		h = &Histogram{}
		l.hists[key] = h
	}
	h.Observe(ns)
}

// SetNode stamps the cluster node/shard id into every record this
// recorder takes, making cross-shard forensics (and the cluster-aware
// straggler scan) attributable. Call before the run starts.
func (r *OpRecorder) SetNode(node int) { r.node = int16(node) }

// Node returns the recorder's cluster node id (0 outside clusters).
func (r *OpRecorder) Node() int { return int(r.node) }

// RecordFlight is the always-on per-op record path of the instrumented
// communicators: it appends the record to the flight ring, folds the op
// latency into the recorder-backend histogram and feeds the straggler
// detector (which on a verdict bumps the registry's anomaly counter and
// dumps the flight recorder) and the critical-path accumulator. 0
// allocs/op in steady state (pinned by TestFlightRecordZeroAllocs and
// BenchmarkRecordFlight).
func (r *OpRecorder) RecordFlight(rec FlightRecord) {
	rec.Node = r.node
	rec.Kind = RecOp
	r.flight.Record(rec)
	r.observeLane(int(rec.Lane), HistKey{Op: rec.Op, SizeClass: SizeClass(int(rec.Bytes)), Backend: r.Backend}, r.ticksToNS(rec.Dur()))
	r.crit.observe(r, &rec)
	if v, ok := r.det.observe(int(rec.Lane), rec.Seq, rec.Op, rec.Start, rec.End); ok {
		r.anomalyDump("straggler", v)
	}
}

// RecordRequest records one non-blocking request's lifecycle: the record
// spans issue to completion, with Phase[PhaseQueueWait] carrying the
// queued-behind-earlier-requests share (service time is the remainder).
// It feeds the flight ring, the (OpRequest, size, backend) histogram and
// the queue-wait blame counter — but NOT the straggler detector or the
// step accumulator: a request's seq stream is disjoint from the collective
// bodies', so feeding it to the step grouping would corrupt both.
// 0 allocs/op in steady state (pinned by TestRecordRequestZeroAllocs).
func (r *OpRecorder) RecordRequest(rec FlightRecord) {
	rec.Node = r.node
	rec.Kind = RecRequest
	r.flight.Record(rec)
	r.observeLane(int(rec.Lane), HistKey{Op: rec.Op, SizeClass: SizeClass(int(rec.Bytes)), Backend: r.Backend}, r.ticksToNS(rec.Dur()))
	if q := rec.Phase[PhaseQueueWait]; q > 0 {
		r.crit.addDirect(r, EdgeQueueWait, q)
	}
}

// RecordNet records one cluster-level network operation (a node leader's
// NIC staging plus fabric exchange around an intra-node op). The record
// goes to the flight ring under its own kind and seq stream, to a
// "<backend>-net"-labelled histogram, and its nic-stage/fabric/reduce
// phase durations straight into the blame counters — a leader's fabric
// exchange is on the cluster op's critical chain by construction, so no
// step grouping is needed. Allocation-free in steady state.
func (r *OpRecorder) RecordNet(rec FlightRecord) {
	rec.Node = r.node
	rec.Kind = RecNet
	r.flight.Record(rec)
	if r.backendNet == "" {
		r.backendNet = r.Backend + "-net"
	}
	r.observeLane(int(rec.Lane), HistKey{Op: rec.Op, SizeClass: SizeClass(int(rec.Bytes)), Backend: r.backendNet}, r.ticksToNS(rec.Dur()))
	for ph, t := range rec.Phase {
		if t <= 0 {
			continue
		}
		if e, ok := EdgeOf(Phase(ph)); ok {
			r.crit.addDirect(r, e, t)
		}
	}
}

// CountFusedBatch counts one fused-broadcast traversal carrying k sub-ops
// of bytes total payload. Instrumented fusion paths call it on rank 0
// only (the Comm.Ops convention), so counts are per collective op.
func (r *OpRecorder) CountFusedBatch(k int, bytes int64) {
	r.fusionBatches.Add(1)
	r.fusionOps.Add(int64(k))
	r.fusionBytes.Add(bytes)
}

// CountFuseAbort counts one fusable request that could not join the
// current batch because its shape (root or payload size) differed — the
// ragged-batch break the fusion window tolerates but cannot fuse across.
func (r *OpRecorder) CountFuseAbort() { r.fuseAborts.Add(1) }

// FusionCounts returns (batches, fused ops, fused bytes, ragged aborts).
func (r *OpRecorder) FusionCounts() (batches, ops, bytes, aborts int64) {
	return r.fusionBatches.Load(), r.fusionOps.Load(), r.fusionBytes.Load(), r.fuseAborts.Load()
}

// NoteInflight folds one in-flight-request gauge sample into the
// recorder's high-water mark (surfaced as requests.max_inflight in
// Registry.Snapshot). Lock-free CAS max, allocation-free.
func (r *OpRecorder) NoteInflight(cur int64) {
	for {
		old := r.maxInflight.Load()
		if cur <= old || r.maxInflight.CompareAndSwap(old, cur) {
			return
		}
	}
}

// MaxInflight returns the recorder's in-flight high-water mark.
func (r *OpRecorder) MaxInflight() int64 { return r.maxInflight.Load() }

// ObserveOp is the harness-level observation point: one call per (rank,
// operation) with the measured start/end ticks. It feeds the (op, size,
// backend) histogram under the harness's own backend label; straggler
// detection stays with the communicator-level RecordFlight path, which
// sees every rank's per-op timing regardless of harness.
func (r *OpRecorder) ObserveOp(lane int, seq uint64, op OpCode, backend string, bytes int, start, end int64) {
	r.observeLane(lane, HistKey{Op: op, SizeClass: SizeClass(bytes), Backend: backend}, r.ticksToNS(end-start))
}

// FlushDetector closes the last open detector and critical-path steps
// (called by Finish; the final operation of a run has no successor to
// close it).
func (r *OpRecorder) FlushDetector() {
	if v, ok := r.det.flush(); ok {
		r.anomalyDump("straggler", v)
	}
	r.crit.flush(r)
}

// CritTicks returns the recorder's critical-path state in clock ticks:
// per-edge blame, the summed critical-lane latency of every closed step,
// and the number of steps. The intra-node edges' blame sums exactly to
// total on both backends (OpClock partitions each op); queue-wait and
// net edges are overlay attributions on top of it.
func (r *OpRecorder) CritTicks() (blame [NEdges]int64, total int64, ops int64) {
	r.crit.mu.Lock()
	defer r.crit.mu.Unlock()
	return r.crit.blame, r.crit.total, r.crit.ops
}

// DumpNow takes an explicit flight dump (invariant failure, chaos
// trigger, operator signal), registers it with the registry and returns
// it.
func (r *OpRecorder) DumpNow(kind, reason string) *FlightDump {
	d := r.flight.Dump(kind, reason, -1, 0)
	r.finishDump(d)
	return d
}

// SetQuiesceDumps toggles suppression of anomaly flight dumps (detection
// counters keep advancing). See the quiesceDumps field.
func (r *OpRecorder) SetQuiesceDumps(on bool) { r.quiesceDumps.Store(on) }

func (r *OpRecorder) anomalyDump(kind string, v stragglerVerdict) {
	r.reg.countStraggler()
	if r.quiesceDumps.Load() {
		return
	}
	d := r.flight.Dump(kind, fmt.Sprintf(
		"straggler: lane %d %s seq %d (%s), step skew %.1fus vs median latency %.1fus",
		v.lane, v.op, v.seq, v.why,
		float64(v.skew)/r.TicksPerUS, float64(v.median)/r.TicksPerUS),
		v.lane, v.seq)
	r.finishDump(d)
}

func (r *OpRecorder) finishDump(d *FlightDump) {
	d.World = r.label
	r.mu.Lock()
	d.ReplayToken = r.token
	r.mu.Unlock()
	r.reg.addDump(d)
}

// CountFault forwards an injected-fault count to the registry (used by
// the verify harness's injection sites so injected faults are visible in
// Snapshot and on the telemetry endpoint).
func (r *OpRecorder) CountFault(f Fault) { r.reg.CountFault(f, 1) }

// foldInto merges every lane's histograms into the registry aggregate —
// incrementally: only what accumulated since the previous fold is merged,
// so World.Sync mid-run followed by World.Finish double-counts nothing.
// Called under the registry lock, at a quiesced boundary (lane histograms
// are single-writer; the caller guarantees their writers are parked).
func (r *OpRecorder) foldInto(hists map[HistKey]*Histogram) {
	cur := make(map[HistKey]Histogram)
	for i := range r.lanes {
		for k, h := range r.lanes[i].hists {
			c := cur[k]
			c.Merge(h)
			cur[k] = c
		}
	}
	for k, c := range cur {
		d := histDelta(c, r.folded.hists[k])
		if d.Count == 0 && d.SumNS == 0 {
			continue
		}
		dst := hists[k]
		if dst == nil {
			dst = &Histogram{}
			hists[k] = dst
		}
		dst.Merge(&d)
	}
	r.folded.hists = cur
}

// critAccum is the always-on critical-path accumulator. It regroups
// RecordFlight's per-rank records into operation steps exactly like the
// straggler detector (one seq per step, reused buffers, close on seq
// advance), and when a step closes it picks the critical lane — the
// last-finishing rank, ties toward the lower lane, matching
// SpanGraph.extract — and charges that lane's phase breakdown to
// per-edge blame counters and histograms. Queue-wait (RecordRequest) and
// NIC/fabric time (RecordNet) arrive via addDirect as overlay blame on
// top of the step-derived intra-node edges.
type critAccum struct {
	mu sync.Mutex

	open   bool
	seq    uint64
	op     OpCode
	lanes  []int32
	starts []int64
	ends   []int64
	phases [][NPhases]int64

	// blame is per-edge attributed ticks; hists the per-edge latency
	// histograms (nanoseconds, like every other histogram). ops counts
	// closed steps, total their summed critical-lane latency in ticks.
	blame [NEdges]int64
	hists [NEdges]Histogram
	ops   int64
	total int64
}

// observe feeds one collective-body record. Caller is RecordFlight; the
// path is allocation-free once the step buffers have grown to the rank
// count.
func (c *critAccum) observe(r *OpRecorder, rec *FlightRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.open:
		c.reset(rec.Seq, rec.Op)
	case rec.Seq > c.seq:
		c.close(r)
		c.reset(rec.Seq, rec.Op)
	case rec.Seq < c.seq:
		// Late record from an already-closed step (gxhc scheduling): drop.
		return
	}
	c.lanes = append(c.lanes, rec.Lane)
	c.starts = append(c.starts, rec.Start)
	c.ends = append(c.ends, rec.End)
	c.phases = append(c.phases, rec.Phase)
}

// addDirect charges ticks straight to one edge's blame and histogram,
// bypassing step grouping (request queue-wait, leader net ops).
func (c *critAccum) addDirect(r *OpRecorder, e EdgeKind, ticks int64) {
	ns := r.ticksToNS(ticks)
	c.mu.Lock()
	c.blame[e] += ticks
	c.hists[e].Observe(ns)
	c.mu.Unlock()
}

// flush closes the last open step (no successor op will close it).
func (c *critAccum) flush(r *OpRecorder) {
	c.mu.Lock()
	c.close(r)
	c.open = false
	c.lanes = c.lanes[:0]
	c.starts = c.starts[:0]
	c.ends = c.ends[:0]
	c.phases = c.phases[:0]
	c.mu.Unlock()
}

// close attributes the buffered step's critical lane. Caller holds c.mu.
// OpClock partitions the critical record's duration across its phases,
// so the step's blame increments sum exactly to its critical-lane
// latency — the invariant the pinned blame-sum tests assert.
func (c *critAccum) close(r *OpRecorder) {
	n := len(c.ends)
	if !c.open || n == 0 {
		return
	}
	ci := 0
	for i := 1; i < n; i++ {
		if c.ends[i] > c.ends[ci] || (c.ends[i] == c.ends[ci] && c.lanes[i] < c.lanes[ci]) {
			ci = i
		}
	}
	for ph, t := range c.phases[ci] {
		if t <= 0 {
			continue
		}
		if e, ok := EdgeOf(Phase(ph)); ok {
			c.blame[e] += t
			c.hists[e].Observe(r.ticksToNS(t))
		}
	}
	c.total += c.ends[ci] - c.starts[ci]
	c.ops++
}

func (c *critAccum) reset(seq uint64, op OpCode) {
	c.open = true
	c.seq = seq
	c.op = op
	c.lanes = c.lanes[:0]
	c.starts = c.starts[:0]
	c.ends = c.ends[:0]
	c.phases = c.phases[:0]
}

// foldCritInto merges the recorder's critical-path blame (converted to
// nanoseconds), per-edge histograms and fusion counters into the registry
// aggregate — incrementally, like foldInto: each call contributes only the
// increment since the previous fold. Blame and path totals subtract in the
// already-converted nanosecond unit (not tick deltas), so the sum over
// repeated folds equals a single final fold exactly despite ticksToNS
// truncation. Called under the registry lock.
func (r *OpRecorder) foldCritInto(a *aggregate) {
	f := &r.folded
	r.crit.mu.Lock()
	for e := 0; e < int(NEdges); e++ {
		ns := r.ticksToNS(r.crit.blame[e])
		a.critBlameNS[e] += ns - f.blameNS[e]
		f.blameNS[e] = ns
		d := histDelta(r.crit.hists[e], f.critHists[e])
		a.critHists[e].Merge(&d)
		f.critHists[e] = r.crit.hists[e]
	}
	a.critOps += r.crit.ops - f.critOps
	f.critOps = r.crit.ops
	pathNS := r.ticksToNS(r.crit.total)
	a.critPathNS += pathNS - f.pathNS
	f.pathNS = pathNS
	r.crit.mu.Unlock()
	b, o, by, ab := r.FusionCounts()
	a.fusionBatches += b - f.fusionBatches
	a.fusionOps += o - f.fusionOps
	a.fusionBytes += by - f.fusionBytes
	a.fuseAborts += ab - f.fuseAborts
	f.fusionBatches, f.fusionOps, f.fusionBytes, f.fuseAborts = b, o, by, ab
}

// stragglerVerdict describes one detected straggler step.
type stragglerVerdict struct {
	lane   int
	seq    uint64
	op     OpCode
	why    string
	skew   int64 // ticks the offender exceeded the rest by
	median int64 // step median latency in ticks
}

// stragglerDetector groups harness observations into operation steps (one
// seq per step) and, when a step closes, flags it if the spread of start
// times — or the slowest rank's latency — exceeds k x the step's median
// latency (plus an absolute floor). Start-time spread is what an injected
// straggler looks like from the harness: the delayed rank enters the
// collective late while everyone else blocks waiting for it.
type stragglerDetector struct {
	mu    sync.Mutex
	k     float64
	floor int64

	seq    uint64
	op     OpCode
	open   bool
	lanes  []int64
	starts []int64
	durs   []int64
	sorted []int64
}

func (d *stragglerDetector) observe(lane int, seq uint64, op OpCode, start, end int64) (stragglerVerdict, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var v stragglerVerdict
	fired := false
	switch {
	case !d.open:
		d.reset(seq, op)
	case seq > d.seq:
		v, fired = d.evaluate()
		d.reset(seq, op)
	case seq < d.seq:
		// A late observation from an already-closed step (possible under
		// real goroutine scheduling in gxhc): drop it.
		return stragglerVerdict{}, false
	}
	d.lanes = append(d.lanes, int64(lane))
	d.starts = append(d.starts, start)
	d.durs = append(d.durs, end-start)
	return v, fired
}

func (d *stragglerDetector) flush() (stragglerVerdict, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, fired := d.evaluate()
	d.open = false
	d.lanes, d.starts, d.durs = d.lanes[:0], d.starts[:0], d.durs[:0]
	return v, fired
}

func (d *stragglerDetector) reset(seq uint64, op OpCode) {
	d.open = true
	d.seq = seq
	d.op = op
	d.lanes = d.lanes[:0]
	d.starts = d.starts[:0]
	d.durs = d.durs[:0]
}

// evaluate judges the currently buffered step. Caller holds d.mu.
func (d *stragglerDetector) evaluate() (stragglerVerdict, bool) {
	n := len(d.durs)
	if !d.open || n < 2 {
		return stragglerVerdict{}, false
	}
	d.sorted = append(d.sorted[:0], d.durs...)
	slices.Sort(d.sorted)
	med := d.sorted[n/2]
	thresh := int64(d.k * float64(med))
	if thresh < d.floor {
		thresh = d.floor
	}
	minStart, maxStart, maxStartI := d.starts[0], d.starts[0], 0
	maxDur, maxDurI := d.durs[0], 0
	for i := 1; i < n; i++ {
		if d.starts[i] < minStart {
			minStart = d.starts[i]
		}
		if d.starts[i] > maxStart {
			maxStart, maxStartI = d.starts[i], i
		}
		if d.durs[i] > maxDur {
			maxDur, maxDurI = d.durs[i], i
		}
	}
	if skew := maxStart - minStart; skew > thresh {
		return stragglerVerdict{
			lane: int(d.lanes[maxStartI]), seq: d.seq, op: d.op,
			why: "arrived late", skew: skew, median: med,
		}, true
	}
	if maxDur > thresh && maxDur-med > d.floor {
		return stragglerVerdict{
			lane: int(d.lanes[maxDurI]), seq: d.seq, op: d.op,
			why: "ran slow", skew: maxDur - med, median: med,
		}, true
	}
	return stragglerVerdict{}, false
}
