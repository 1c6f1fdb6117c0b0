// Package env is the runtime the collective algorithms are written
// against: a World of MPI-like ranks pinned to cores of a simulated node,
// each rank a simulated process with convenience operations for copying,
// reducing, synchronizing through shared-memory flags, and attaching to
// peers' buffers via (simulated) XPMEM.
package env

import (
	"fmt"

	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// Observer, when set, is invoked on every newly constructed World. It is
// the process-wide observability hook: binaries that want tracing/metrics
// install it once (before any worlds exist, typically via ObserveWorlds)
// and every world built afterwards — including the fresh world each
// benchmark size sweep creates — reports into the same registry. When nil
// (the default), world construction takes the exact same path as before.
var Observer func(*World)

// World is one intra-node MPI job: N ranks mapped onto the cores of a
// simulated platform.
type World struct {
	Sys  *mem.System
	Topo *topo.Topology
	Map  topo.Mapping
	N    int

	// Obs is this world's observability sink, nil unless an Observer
	// installed one. Components check it for nil at wiring time only;
	// nothing on the simulation hot path reads it.
	Obs *obs.World

	barrier  *barrierState
	obsFlush []func(*obs.World)

	// parent is non-nil on worlds created by Subset. Subset worlds share
	// the parent's engine and memory system, so the parent's Run is the one
	// that drains — flush registrations are forwarded there.
	parent *World
}

// NewWorld creates a world of len(m) ranks on a fresh engine with default
// memory parameters for the platform.
func NewWorld(t *topo.Topology, m topo.Mapping) *World {
	return NewWorldParams(t, m, mem.DefaultParams(t))
}

// NewWorldParams creates a world with explicit memory parameters.
func NewWorldParams(t *topo.Topology, m topo.Mapping, params mem.Params) *World {
	if err := m.Validate(t); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	w := &World{
		Sys:     mem.NewSystem(eng, t, params),
		Topo:    t,
		Map:     m,
		N:       len(m),
		barrier: &barrierState{},
	}
	if Observer != nil {
		Observer(w)
	}
	return w
}

// ObserveWorlds installs the process-wide Observer so every World built
// afterwards feeds the given registry: each world gets a per-rank span
// tracer on the engine's virtual clock (when the registry has tracing
// enabled), a per-distance message tally, and a flow-attribution hook on
// the memory system. Call it once at program start, before any worlds are
// created; the Observer runs during construction, before rank goroutines
// exist, so no synchronization is needed on the World side.
func ObserveWorlds(reg *obs.Registry) {
	Observer = func(w *World) {
		wo := reg.NewWorld(w.Topo.Name, w.Topo.NCores, obs.SimTicksPerUS, w.Sys.Eng.Clock())
		wo.InitDistance(w.Topo, w.Map)
		w.Obs = wo
		w.Sys.OnFlow = wo.FlowHook()
	}
}

// OnObsFlush registers fn to run once after the engine drains, just before
// the world folds its counters into the registry. Components (the XHC
// communicator, most notably) use it to contribute end-of-run state such
// as registration-cache statistics. No-op ordering hazards: flush functions
// run on the caller of Run, after all rank goroutines have finished. On a
// Subset world the registration is forwarded to the root parent, whose Run
// is the one that actually drains the shared engine.
func (w *World) OnObsFlush(fn func(*obs.World)) {
	if w.parent != nil {
		w.parent.OnObsFlush(fn)
		return
	}
	w.obsFlush = append(w.obsFlush, fn)
}

// Subset derives a communicator-sized world from w: a MPI_Comm_split-style
// view containing only the given parent ranks (in the given order, which
// becomes the sub-world's rank order). The sub-world shares the parent's
// engine, memory system, topology and observability sink — it is the same
// machine, seen by fewer ranks — but gets its own barrier state. Do not
// call Run on a subset world: its ranks are driven by procs of the parent
// world (see ProcOn); only the parent's Run drains the shared engine.
func (w *World) Subset(ranks []int) *World {
	m := make(topo.Mapping, len(ranks))
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= w.N {
			panic(fmt.Sprintf("env: subset rank %d out of world size %d", r, w.N))
		}
		if seen[r] {
			panic(fmt.Sprintf("env: duplicate rank %d in subset", r))
		}
		seen[r] = true
		m[i] = w.Map.Core(r)
	}
	root := w
	if w.parent != nil {
		root = w.parent
	}
	return &World{
		Sys:     w.Sys,
		Topo:    w.Topo,
		Map:     m,
		N:       len(ranks),
		Obs:     w.Obs,
		barrier: &barrierState{},
		parent:  root,
	}
}

// ProcOn wraps an already-running simulated process as a rank of this
// world. It is how subset worlds are driven: a parent-world proc that is
// rank r of the parent becomes rank i of the subset (the caller supplies
// the subset-local rank; the core pinning follows the world's mapping).
func (w *World) ProcOn(s *sim.Proc, rank int) *Proc {
	return &Proc{S: s, W: w, Rank: rank, Core: w.Map.Core(rank)}
}

// Core returns the core that rank runs on.
func (w *World) Core(rank int) int { return w.Map.Core(rank) }

// Proc is one rank's execution context during a run.
type Proc struct {
	S    *sim.Proc
	W    *World
	Rank int
	Core int
}

// Run spawns one simulated process per rank executing body and runs the
// engine to completion.
func (w *World) Run(body func(p *Proc)) error {
	for r := 0; r < w.N; r++ {
		r := r
		w.Sys.Eng.Go(fmt.Sprintf("rank%d", r), func(sp *sim.Proc) {
			body(&Proc{S: sp, W: w, Rank: r, Core: w.Map.Core(r)})
		})
	}
	err := w.Sys.Eng.Run()
	if w.Obs != nil {
		for _, fn := range w.obsFlush {
			fn(w.Obs)
		}
		w.Obs.Finish(w.Sys.Stats, w.Sys.Eng.Stats())
	}
	return err
}

// Now returns the rank's current virtual time.
func (p *Proc) Now() sim.Time { return p.S.Now() }

// Compute advances the rank's clock by d (application compute phases).
func (p *Proc) Compute(d sim.Duration) { p.S.Sleep(d) }

// NewBuffer allocates a buffer homed at this rank's core.
func (p *Proc) NewBuffer(label string, n int) *mem.Buffer {
	return p.W.Sys.NewBuffer(label, p.Core, n)
}

// NewBufferAt allocates a buffer homed at another rank's core (used by
// communicator setup code that builds per-rank shared structures).
func (w *World) NewBufferAt(label string, rank, n int) *mem.Buffer {
	return w.Sys.NewBuffer(label, w.Map.Core(rank), n)
}

// Copy moves n bytes from src[soff:] into dst[doff:] as this rank.
func (p *Proc) Copy(dst *mem.Buffer, doff int, src *mem.Buffer, soff, n int) {
	p.W.Sys.Copy(p.S, p.Core, dst, doff, src, soff, n)
}

// Dirty marks a buffer as rewritten by this rank (the osu _mb benchmark
// variant's "alter the buffer before every iteration").
func (p *Proc) Dirty(b *mem.Buffer) {
	p.W.Sys.MarkWritten(b, p.Core)
}

// ChargeRead accounts for streaming n bytes of src through this rank.
func (p *Proc) ChargeRead(src *mem.Buffer, soff, n int) {
	p.W.Sys.ChargeRead(p.S, p.Core, src, soff, n)
}

// ChargeCompute accounts for a streaming kernel over n bytes.
func (p *Proc) ChargeCompute(n int) {
	p.W.Sys.ChargeCompute(p.S, n)
}

// barrierState implements a zero-cost rendezvous used by benchmark
// harnesses to align ranks between iterations. It deliberately charges no
// model time: it is measurement scaffolding, not part of any collective.
type barrierState struct {
	epoch   uint64
	arrived int
	waiters []sim.Waiter
}

// HarnessBarrier blocks until all N ranks of the world have arrived.
// Benchmarks cross it twice per measured iteration, so it must stay off the
// allocation profile: the waiter slice's backing array is reused across
// epochs and the suspend reason is formatted lazily (only if a deadlock
// report ever needs it).
func (p *Proc) HarnessBarrier() {
	b := p.W.barrier
	b.arrived++
	if b.arrived == p.W.N {
		b.arrived = 0
		b.epoch++
		now := p.S.Now()
		p.W.Sys.Eng.WakeAll(b.waiters, now)
		b.waiters = b.waiters[:0]
		return
	}
	b.waiters = append(b.waiters, p.S.Waiter())
	p.S.SuspendLazy(b, b.epoch, 0)
}

// Reason renders a HarnessBarrier wait for deadlock reports.
func (b *barrierState) Reason(epoch, _ uint64) string {
	return fmt.Sprintf("harness barrier (epoch %d)", epoch)
}
