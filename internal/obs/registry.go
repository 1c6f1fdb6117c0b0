package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"xhc/internal/mem"
	"xhc/internal/sim"
	"xhc/internal/topo"
	"xhc/internal/trace"
	"xhc/internal/xpmem"
)

// Fault identifies one kind of injected fault (the verify harness's chaos
// hooks from PR 3). Injection sites count through World.Rec.CountFault so
// injected counts are visible in Snapshot and on the telemetry endpoint.
type Fault uint8

// Known injected-fault kinds.
const (
	// FaultStraggler is an injected per-op rank delay >= 10us (sim worlds).
	FaultStraggler Fault = iota
	// FaultPerturb is an injected sub-2us scheduling jitter (sim worlds).
	FaultPerturb
	// FaultEviction is a forced registration-cache eviction event.
	FaultEviction
	// FaultGxhcStraggler is the root-rank wall-clock delay in gxhc runs.
	FaultGxhcStraggler
	// FaultChaos is a chaos-config mutation applied to a run.
	FaultChaos

	nFaults
)

var faultNames = [nFaults]string{
	"straggler", "perturbation", "eviction", "gxhc_straggler", "chaos_mutation",
}

// String names the fault the way snapshot metrics embed it.
func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// HistStat is one latency histogram's summary in a snapshot: the key plus
// quantiles in microseconds.
type HistStat struct {
	Key    HistKey
	Count  int64
	MeanUS float64
	P50US  float64
	P90US  float64
	P99US  float64
	MaxUS  float64
}

// Metric is one named counter or ratio in a snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Snapshot is a point-in-time view of every counter a Registry has
// gathered, obtained from a single Snapshot() call.
type Snapshot struct {
	Metrics []Metric
	// Hists summarizes every (collective, size-class, backend) latency
	// histogram folded in so far, sorted by key. The same quantiles also
	// appear as flat "lat.<op>.<size>.<backend>.*" metrics.
	Hists []HistStat
}

// Get returns the named metric and whether it exists.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Value returns the named metric (0 if absent).
func (s Snapshot) Value(name string) float64 {
	v, _ := s.Get(name)
	return v
}

// String renders the snapshot as an aligned two-column report.
func (s Snapshot) String() string {
	var b strings.Builder
	b.WriteString("# observability snapshot\n")
	w := 0
	for _, m := range s.Metrics {
		if len(m.Name) > w {
			w = len(m.Name)
		}
	}
	for _, m := range s.Metrics {
		if m.Value == float64(int64(m.Value)) {
			fmt.Fprintf(&b, "%-*s %d\n", w+2, m.Name, int64(m.Value))
		} else {
			fmt.Fprintf(&b, "%-*s %.4f\n", w+2, m.Name, m.Value)
		}
	}
	return b.String()
}

// Registry is the unified metrics (and tracer) collection point of one
// process: every observed world folds its counters in when its run
// finishes, and Snapshot exposes the totals. All methods are safe for
// concurrent use — xhcrepro's parallel experiment cells create and finish
// worlds from many goroutines at once.
type Registry struct {
	mu      sync.Mutex
	trace   bool
	nextPID int
	tracers []*Tracer
	agg     aggregate
	hists   map[HistKey]*Histogram
	dumps   []*FlightDump
	sink    func(*FlightDump)
}

// maxKeptDumps bounds how many flight dumps the registry retains (oldest
// evicted first). Runs with many worlds would otherwise let late empty
// dumps crowd out the interesting one.
const maxKeptDumps = 8

// aggregate is the folded counter state across all finished worlds.
type aggregate struct {
	worlds int64
	ops    int64

	faults      [nFaults]int64
	stragglers  int64
	flightDumps int64
	maxInflight int64

	// Critical-path blame: per-edge attributed time (ns), the per-edge
	// latency histograms, and the number / summed latency of analyzed
	// operation steps (see critAccum).
	critBlameNS [NEdges]int64
	critHists   [NEdges]Histogram
	critOps     int64
	critPathNS  int64

	// Request-fusion counters (fused batches formed, sub-ops fused into
	// them, fused payload bytes, ragged-shape fuse aborts).
	fusionBatches int64
	fusionOps     int64
	fusionBytes   int64
	fuseAborts    int64

	mem             mem.Stats
	cache           xpmem.CacheStats
	eventsScheduled int64
	eventsRun       int64
	maxHeapLen      int
	distCounts      [5]int64
	distBytes       [5]int64
	flowCount       int64
	flowTimePS      int64
}

// NewRegistry creates an empty registry. With traceEnabled, every world
// observed through NewWorld also gets a span tracer; otherwise Tracer
// fields stay nil and the instrumented code paths cost one nil check.
func NewRegistry(traceEnabled bool) *Registry {
	return &Registry{trace: traceEnabled}
}

// TraceEnabled reports whether per-world tracers are being created.
func (r *Registry) TraceEnabled() bool { return r.trace }

// NewWorld registers one observed world (or gxhc communicator) and returns
// its observation handle. lanes is the number of trace lanes (cores for
// simulated worlds, participants for gxhc); clock is the time source spans
// are recorded against.
func (r *Registry) NewWorld(label string, lanes int, ticksPerUS float64, clock func() int64) *World {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := &World{reg: r}
	if r.trace {
		w.Tracer = NewTracer(fmt.Sprintf("%s #%d", label, r.nextPID), r.nextPID, lanes, ticksPerUS, clock)
		r.tracers = append(r.tracers, w.Tracer)
	}
	w.Rec = newOpRecorder(r, fmt.Sprintf("%s #%d", label, r.nextPID), lanes, DefaultFlightCap, ticksPerUS, clock)
	r.nextPID++
	return w
}

// SetDumpSink installs a callback invoked (outside the registry lock) for
// every flight dump taken — the binaries use it to write dump files.
func (r *Registry) SetDumpSink(fn func(*FlightDump)) {
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// CountFault adds n to an injected-fault counter.
func (r *Registry) CountFault(f Fault, n int64) {
	if f >= nFaults {
		return
	}
	r.mu.Lock()
	r.agg.faults[f] += n
	r.mu.Unlock()
}

// FaultCount returns one injected-fault counter.
func (r *Registry) FaultCount(f Fault) int64 {
	if f >= nFaults {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg.faults[f]
}

func (r *Registry) countStraggler() {
	r.mu.Lock()
	r.agg.stragglers++
	r.mu.Unlock()
}

// addDump retains d (bounded) and hands it to the dump sink.
func (r *Registry) addDump(d *FlightDump) {
	r.mu.Lock()
	r.agg.flightDumps++
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > maxKeptDumps {
		r.dumps = r.dumps[len(r.dumps)-maxKeptDumps:]
	}
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink(d)
	}
}

// Dumps returns the retained flight dumps, oldest first.
func (r *Registry) Dumps() []*FlightDump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FlightDump(nil), r.dumps...)
}

// HistSnapshot returns a copy of every folded latency histogram (the
// telemetry endpoint renders the raw buckets from it).
func (r *Registry) HistSnapshot() map[HistKey]Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[HistKey]Histogram, len(r.hists))
	for k, h := range r.hists {
		out[k] = *h
	}
	return out
}

// Tracers returns every tracer created so far (empty when tracing is off).
func (r *Registry) Tracers() []*Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Tracer(nil), r.tracers...)
}

// WriteChromeTrace exports all tracers as one Chrome-trace JSON document.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Tracers()...)
}

// Snapshot returns every gathered counter from a single call: flow-solver
// stats, registration-cache hit ratios, coherence fan-in queue depths,
// per-distance message counts, engine and flow attribution totals.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	a := r.agg
	hs := make([]HistStat, 0, len(r.hists))
	for k, h := range r.hists {
		hs = append(hs, HistStat{
			Key:    k,
			Count:  h.Count,
			MeanUS: h.MeanNS() / 1e3,
			P50US:  h.Quantile(0.50) / 1e3,
			P90US:  h.Quantile(0.90) / 1e3,
			P99US:  h.Quantile(0.99) / 1e3,
			MaxUS:  float64(h.MaxNS) / 1e3,
		})
	}
	r.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool {
		a, b := hs[i].Key, hs[j].Key
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.SizeClass != b.SizeClass {
			return a.SizeClass < b.SizeClass
		}
		return a.Backend < b.Backend
	})

	var ms []Metric
	add := func(name string, v float64) { ms = append(ms, Metric{Name: name, Value: v}) }
	add("worlds", float64(a.worlds))
	add("ops", float64(a.ops))
	add("engine.events_scheduled", float64(a.eventsScheduled))
	add("engine.events_run", float64(a.eventsRun))
	add("engine.max_heap_len", float64(a.maxHeapLen))
	add("mem.flows_started", float64(a.mem.FlowsStarted))
	add("mem.bytes_moved", float64(a.mem.BytesMoved))
	add("mem.max_concurrent_flows", float64(a.mem.MaxConcurrent))
	add("mem.flow_spans", float64(a.flowCount))
	add("mem.flow_time_us", float64(a.flowTimePS)/SimTicksPerUS)
	add("mem.solver_fastpath", float64(a.mem.SolverFastPath))
	add("mem.solver_fallbacks", float64(a.mem.SolverFallbacks))
	add("mem.line_fetches", float64(a.mem.LineFetches))
	add("mem.line_hits", float64(a.mem.LineHits))
	add("mem.line_rmws", float64(a.mem.LineRMWs))
	add("mem.line_queue_wait_us", float64(a.mem.QueueWaitPS)/SimTicksPerUS)
	add("mem.line_waits", float64(a.mem.LineWaits))
	add("mem.max_line_waiters", float64(a.mem.MaxLineWaiters))
	add("regcache.hits", float64(a.cache.Hits))
	add("regcache.misses", float64(a.cache.Misses))
	add("regcache.evictions", float64(a.cache.Evictions))
	add("regcache.hit_ratio", a.cache.HitRatio())
	for d := topo.SelfCore; d <= topo.CrossSocket; d++ {
		add("msgs."+d.String()+".count", float64(a.distCounts[d]))
		add("msgs."+d.String()+".bytes", float64(a.distBytes[d]))
	}
	for f := Fault(0); f < nFaults; f++ {
		add("faults.injected_"+f.String(), float64(a.faults[f]))
	}
	add("anomaly.stragglers", float64(a.stragglers))
	add("anomaly.flight_dumps", float64(a.flightDumps))
	add("requests.max_inflight", float64(a.maxInflight))
	add("crit.ops", float64(a.critOps))
	add("crit.path_us", float64(a.critPathNS)/1e3)
	for e := EdgeKind(0); e < NEdges; e++ {
		prefix := "crit." + e.String() + "."
		h := &a.critHists[e]
		add(prefix+"blame_us", float64(a.critBlameNS[e])/1e3)
		add(prefix+"count", float64(h.Count))
		add(prefix+"p50_us", h.Quantile(0.50)/1e3)
		add(prefix+"p99_us", h.Quantile(0.99)/1e3)
		add(prefix+"max_us", float64(h.MaxNS)/1e3)
	}
	add("fusion.batches", float64(a.fusionBatches))
	add("fusion.ops_fused", float64(a.fusionOps))
	add("fusion.fused_bytes", float64(a.fusionBytes))
	add("fusion.aborted_ragged", float64(a.fuseAborts))
	for _, h := range hs {
		prefix := "lat." + h.Key.String() + "."
		add(prefix+"count", float64(h.Count))
		add(prefix+"p50_us", h.P50US)
		add(prefix+"p90_us", h.P90US)
		add(prefix+"p99_us", h.P99US)
		add(prefix+"max_us", h.MaxUS)
	}
	return Snapshot{Metrics: ms, Hists: hs}
}

// World is the observation handle of one simulated world (or gxhc
// communicator): a tracer (nil when tracing is disabled) plus world-local
// accumulation that Finish folds into the registry. The world-local state
// is only touched from the world's engine goroutine, so no lock is needed
// until Finish.
type World struct {
	reg *Registry

	// Tracer records phase spans; nil when the registry was created with
	// tracing disabled. Instrumented code must nil-check it.
	Tracer *Tracer

	// Rec is the world's always-on op recorder: flight ring, latency
	// histograms and straggler detector. Never nil for an observed world.
	Rec *OpRecorder

	dist       *trace.Collector
	cache      xpmem.CacheStats
	ops        int64
	flowCount  int64
	flowTimePS int64
	finished   bool
}

// InitDistance arms Table II-style per-distance message accounting for the
// world's topology and rank mapping.
func (w *World) InitDistance(top *topo.Topology, m topo.Mapping) {
	w.dist = trace.New(top, m)
}

// RecordPull tallies one member<-leader data edge (core.Comm obsPull hook).
func (w *World) RecordPull(from, to, n int) {
	if w.dist != nil {
		w.dist.Record(from, to, n)
	}
}

// FlowHook returns the mem.System.OnFlow callback: it accumulates flow
// attribution and, when tracing, records a PhaseFlow span on the
// initiating core's lane.
func (w *World) FlowHook() func(core, bytes int, start, end sim.Time) {
	return func(core, bytes int, start, end sim.Time) {
		w.flowCount++
		w.flowTimePS += end - start
		if w.Tracer != nil {
			w.Tracer.Record(core, -1, PhaseFlow, "flow", 0, start, end, int64(bytes))
		}
	}
}

// AddCacheStats folds one registration cache's counters in (called by a
// component's flush hook after the run).
func (w *World) AddCacheStats(st xpmem.CacheStats) {
	w.cache.Hits += st.Hits
	w.cache.Misses += st.Misses
	w.cache.Evictions += st.Evictions
}

// AddOps folds a component's completed-operation count in.
func (w *World) AddOps(n int64) { w.ops += n }

// Sync folds the world's latency histograms, critical-path blame and
// fusion counters into the registry mid-run, without finishing the world:
// a subsequent Sync or Finish folds only what accumulated afterwards, so
// nothing is ever counted twice. This is the telemetry feed of the online
// tuner (internal/tune): Registry.Snapshot after a Sync reflects every
// operation completed so far, not just finished worlds.
//
// Call it only at a quiesced operation boundary — the per-lane histogram
// maps are single-writer and unlocked. Simulated worlds may Sync any time
// from the engine goroutine; gxhc communicators must Sync from rank 0
// inside a Retune window (every rank parked in the rendezvous, request
// workers drained), which is exactly where the bandit runs.
//
// The world-local engine/memory/cache counters are NOT folded here — they
// arrive with Finish, whose signature carries them. A Sync'd registry
// therefore shows live histograms and blame alongside finished-world-only
// counter totals.
func (w *World) Sync() {
	if w.Rec == nil {
		return
	}
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	if w.finished {
		return
	}
	if w.reg.hists == nil {
		w.reg.hists = make(map[HistKey]*Histogram)
	}
	w.Rec.foldInto(w.reg.hists)
	w.Rec.foldCritInto(&w.reg.agg)
	w.reg.agg.maxInflight = max(w.reg.agg.maxInflight, w.Rec.MaxInflight())
}

// Finish folds the world's counters and latency histograms into the
// registry. It is idempotent per world and safe to call from any
// goroutine. The detector flush happens before the registry lock is
// taken: a straggler found in the final step dumps the flight recorder,
// and the dump path takes the registry lock itself.
func (w *World) Finish(ms mem.Stats, es sim.EngineStats) {
	w.reg.mu.Lock()
	done := w.finished
	w.reg.mu.Unlock()
	if done {
		return
	}
	if w.Rec != nil {
		w.Rec.FlushDetector()
	}
	w.reg.mu.Lock()
	defer w.reg.mu.Unlock()
	if w.finished {
		return
	}
	w.finished = true
	a := &w.reg.agg
	a.worlds++
	a.ops += w.ops
	a.mem.FlowsStarted += ms.FlowsStarted
	a.mem.BytesMoved += ms.BytesMoved
	a.mem.MaxConcurrent = max(a.mem.MaxConcurrent, ms.MaxConcurrent)
	a.mem.LineFetches += ms.LineFetches
	a.mem.LineHits += ms.LineHits
	a.mem.LineRMWs += ms.LineRMWs
	a.mem.QueueWaitPS += ms.QueueWaitPS
	a.mem.LineWaits += ms.LineWaits
	a.mem.MaxLineWaiters = max(a.mem.MaxLineWaiters, ms.MaxLineWaiters)
	a.mem.SolverFastPath += ms.SolverFastPath
	a.mem.SolverFallbacks += ms.SolverFallbacks
	a.cache.Hits += w.cache.Hits
	a.cache.Misses += w.cache.Misses
	a.cache.Evictions += w.cache.Evictions
	a.eventsScheduled += es.EventsScheduled
	a.eventsRun += es.EventsRun
	a.maxHeapLen = max(a.maxHeapLen, es.MaxHeapLen)
	a.flowCount += w.flowCount
	a.flowTimePS += w.flowTimePS
	if w.dist != nil {
		for d := topo.SelfCore; d <= topo.CrossSocket; d++ {
			a.distCounts[d] += w.dist.Count(d)
			a.distBytes[d] += w.dist.Bytes(d)
		}
	}
	if w.Rec != nil {
		if w.reg.hists == nil {
			w.reg.hists = make(map[HistKey]*Histogram)
		}
		w.Rec.foldInto(w.reg.hists)
		w.Rec.foldCritInto(a)
		a.maxInflight = max(a.maxInflight, w.Rec.MaxInflight())
	}
}
