package gxhc

import (
	"fmt"
	"sync"
)

// Tuning is the subset of Config an online tuner may change on a live
// communicator (DESIGN.md §17). GroupSize, fixed at construction because
// it shapes the hierarchy, is absent.
//
// Field conventions, mirroring core.Tuning:
//
//   - ChunkBytes: <= 0 keeps the current pipelining granule.
//   - FuseBytes: negative keeps; 0 disables request fusion; positive sets
//     the fusable-payload cap (gxhc staging buffers grow on demand, so no
//     upper clamp is needed).
//   - SpinProbes / SpinScaleMax: <= 0 keeps; positive replaces the waiter
//     budget unit / small-fan-in multiplier cap, recomputing every built
//     group's spin budget in place.
type Tuning struct {
	ChunkBytes   int
	FuseBytes    int
	SpinProbes   int
	SpinScaleMax int
}

// KeepTuning returns the Tuning that changes nothing.
func KeepTuning() Tuning { return Tuning{FuseBytes: -1} }

// rendezvous is a reusable sense-reversing barrier over the communicator's
// n participants. Unlike the collective Barrier it reads none of the
// tunable knobs (its state is just the mutex-guarded count/generation
// pair), and the mutex/cond handshake gives any store performed by the
// last arriver of one phase a happens-before edge to every rank's return
// from the next — exactly what publishing a retuned plan needs.
type rendezvous struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   uint64
}

// arrive blocks until n participants have arrived, then releases them all.
func (rv *rendezvous) arrive(n int) {
	rv.mu.Lock()
	gen := rv.gen
	rv.count++
	if rv.count == n {
		rv.count = 0
		rv.gen++
		rv.cond.Broadcast()
		rv.mu.Unlock()
		return
	}
	for rv.gen == gen {
		rv.cond.Wait()
	}
	rv.mu.Unlock()
}

// ApplyTuning installs t at a safe operation boundary. It is a collective:
// every rank must call it at the same point in its operation sequence,
// outside any non-blocking window (panics if the calling rank has requests
// in flight, and again on rank 0 if any rank does — the worker goroutines
// must be drained before the knobs they read can move). Internally the
// communicator quiesces through a dedicated rendezvous: no rank starts a
// post-tuning operation until rank 0 has applied the plan, and rank 0
// applies it only once every rank has arrived, so every operation runs
// under exactly one plan and no op body races a knob store.
func (c *Comm) ApplyTuning(rank int, t Tuning) {
	c.Retune(rank, func() Tuning { return t })
}

// Retune is ApplyTuning with the plan decided inside the quiesced window:
// f runs on rank 0 after every rank has arrived (free to read telemetry —
// nothing is in flight) and the Tuning it returns is applied before any
// rank proceeds.
func (c *Comm) Retune(rank int, f func() Tuning) {
	if p := c.nb[rank].pending.Load(); p != 0 {
		panic(fmt.Sprintf("gxhc: Retune on rank %d inside a non-blocking window (%d requests in flight)", rank, p))
	}
	c.tuneGate.arrive(c.n)
	if rank == 0 {
		if in := c.inflight.Load(); in != 0 {
			panic(fmt.Sprintf("gxhc: Retune with %d requests in flight across the communicator", in))
		}
		c.applyTuning(f())
	}
	c.tuneGate.arrive(c.n)
}

// applyTuning mutates the live knobs. Runs on rank 0 only, with every
// other rank parked in the closing rendezvous arrive and every request
// worker drained (inflight == 0), so the plain stores race nothing; the
// rendezvous publishes them to the ranks, and the request queue's channel
// send/receive publishes them to any worker that runs afterwards.
func (c *Comm) applyTuning(t Tuning) {
	if t.ChunkBytes > 0 {
		c.cfg.ChunkBytes = t.ChunkBytes
	}
	switch {
	case t.FuseBytes < 0:
		// keep
	case t.FuseBytes == 0:
		c.fuseMax = 0
	default:
		c.fuseMax = t.FuseBytes
	}
	spinChanged := false
	if t.SpinProbes > 0 && t.SpinProbes != c.cfg.SpinProbes {
		c.cfg.SpinProbes = t.SpinProbes
		spinChanged = true
	}
	if t.SpinScaleMax > 0 && t.SpinScaleMax != c.cfg.SpinScaleMax {
		c.cfg.SpinScaleMax = t.SpinScaleMax
		spinChanged = true
	}
	if spinChanged {
		// Rewrite every built state's precomputed budgets in place; states
		// built later (buildState) derive from the updated cfg directly.
		c.agBudget = c.spinBudgetFor(c.n)
		for i := range c.states {
			st := c.states[i].Load()
			if st == nil {
				continue
			}
			for _, lvl := range st.groups {
				for _, ctl := range lvl {
					ctl.spinBudget = c.spinBudgetFor(len(ctl.members))
				}
			}
		}
	}
}
