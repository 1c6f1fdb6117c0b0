// Package shm provides the shared-memory control structures that XHC and
// the comparison frameworks synchronize through: single-writer flags
// (paper Section III-E), atomic flags (the OpenMPI-sm style the paper
// warns about), and helpers controlling how flags map onto cache lines
// (the Fig. 10 placement schemes).
package shm

import (
	"fmt"

	"xhc/internal/mem"
	"xhc/internal/sim"
)

// Flag is a single-writer, multiple-reader synchronization word in shared
// memory. Only the owner core may Set it; readers poll or block. Values
// are expected to be monotonically non-decreasing (sequence/byte counters),
// which is how all XHC control flags behave.
type Flag struct {
	Name      string
	OwnerCore int

	sys  *mem.System
	line *mem.Line
	val  uint64
}

// NewFlag allocates a flag on its own cache line homed at ownerCore (the
// paper's default: flags are "carefully placed on different cache lines").
func NewFlag(sys *mem.System, name string, ownerCore int) *Flag {
	return NewFlagOnLine(sys, name, ownerCore, sys.NewLine(ownerCore))
}

// NewFlagOnLine allocates a flag sharing the given cache line with other
// flags (the Fig. 10 "shared line" scheme). All flags on a line must have
// the same owner core for the single-writer discipline to hold per line.
func NewFlagOnLine(sys *mem.System, name string, ownerCore int, line *mem.Line) *Flag {
	return &Flag{Name: name, OwnerCore: ownerCore, sys: sys, line: line}
}

// Line exposes the underlying coherence line (for placement-scheme tests).
func (f *Flag) Line() *mem.Line { return f.line }

// Set stores v. It enforces the single-writer discipline: only the owner
// core may write, and values may not decrease.
func (f *Flag) Set(p *sim.Proc, core int, v uint64) {
	if core != f.OwnerCore {
		panic(fmt.Sprintf("shm: flag %q owned by core %d written from core %d",
			f.Name, f.OwnerCore, core))
	}
	if v < f.val {
		panic(fmt.Sprintf("shm: flag %q set backwards: %d -> %d", f.Name, f.val, v))
	}
	if f.sys.OnFlagWrite != nil {
		f.sys.OnFlagWrite(f.Name, f.line, core, v)
	}
	f.line.Write(p, core)
	f.val = v
}

// Read returns the current value, charging the reader for the line access.
func (f *Flag) Read(p *sim.Proc, core int) uint64 {
	f.line.Read(p, core)
	return f.val
}

// Peek returns the value without charging (for assertions in tests).
func (f *Flag) Peek() uint64 { return f.val }

// WaitGE blocks until the flag value is >= v, returning the observed
// value. Readers that miss block on the line and are woken by the owner's
// next store; the single-writer scheme means no atomics are involved.
func (f *Flag) WaitGE(p *sim.Proc, core int, v uint64) uint64 {
	for {
		got := f.Read(p, core)
		if got >= v {
			return got
		}
		// Re-check without yielding before arming the waiter: between the
		// charged Read above and this point no other process has run, so
		// no store can be lost.
		f.line.AddWaiter(p)
		p.SuspendLazy(f, v, f.val)
	}
}

// Reason renders a WaitGE on the flag for deadlock reports.
func (f *Flag) Reason(v, have uint64) string {
	return fmt.Sprintf("wait %s >= %d (have %d)", f.Name, v, have)
}

// WaitAllGE blocks until every flag's value is >= v. The leader-side
// gather reads the members' flags with overlapping fetches (hardware
// memory-level parallelism) instead of one serialized miss per flag, and
// parks on all pending lines at once when some flags lag.
func WaitAllGE(p *sim.Proc, core int, flags []*Flag, v uint64) {
	waitAll(p, core, flags, nil, v)
}

// WaitAllTargets blocks until flags[i] >= targets[i] for every i, with the
// same overlapped-fetch gather as WaitAllGE.
func WaitAllTargets(p *sim.Proc, core int, flags []*Flag, targets []uint64) {
	if len(flags) != len(targets) {
		panic("shm: flags/targets length mismatch")
	}
	waitAll(p, core, flags, targets, 0)
}

// waitAll is the gather behind WaitAllGE and WaitAllTargets: flag i must
// reach targets[i], or v when targets is nil. Each round reads the pending
// lines in one batch and keeps the laggards in place, in order; up to
// waitInline flags, the pending set and the line list live on the stack,
// so a gather allocates nothing.
func waitAll(p *sim.Proc, core int, flags []*Flag, targets []uint64, v uint64) {
	if len(flags) == 0 {
		return
	}
	sys := flags[0].sys
	type pf struct {
		f *Flag
		v uint64
	}
	var pbuf [waitInline]pf
	var lbuf [waitInline]*mem.Line
	pending, lines := pbuf[:0], lbuf[:0]
	for i, f := range flags {
		if targets != nil {
			v = targets[i]
		}
		pending = append(pending, pf{f, v})
	}
	for {
		lines = lines[:0]
		for _, x := range pending {
			lines = append(lines, x.f.line)
		}
		sys.ReadBatch(p, core, lines)
		still := pending[:0]
		for _, x := range pending {
			if x.f.val < x.v {
				still = append(still, x)
			}
		}
		if len(still) == 0 {
			return
		}
		pending = still
		// Arm a waiter on every lagging line under one suspension; the
		// first write wakes us, the rest become stale no-ops.
		for _, x := range pending {
			x.f.line.AddWaiter(p)
		}
		p.SuspendLazy((*gatherWait)(pending[0].f), uint64(len(pending)), pending[0].v)
	}
}

// gatherWait renders a waitAll suspension, named by its first lagging
// flag, for deadlock reports.
type gatherWait Flag

func (g *gatherWait) Reason(n, v uint64) string {
	return fmt.Sprintf("wait %d flags (first: %s >= %d)", n, g.Name, v)
}

// waitInline is how many flags a gather holds on the stack.
const waitInline = 16

// AtomicFlag is a fetch-add-updated counter, as used by OpenMPI's sm
// component. Any core may update it; every update is an atomic RMW that
// serializes at the line (the paper's Fig. 4 pathology).
type AtomicFlag struct {
	Name string

	sys  *mem.System
	line *mem.Line
	val  uint64
}

// NewAtomicFlag allocates an atomic counter on its own line homed at core.
func NewAtomicFlag(sys *mem.System, name string, home int) *AtomicFlag {
	return &AtomicFlag{Name: name, sys: sys, line: sys.NewLine(home)}
}

// FetchAdd atomically adds d and returns the previous value.
func (f *AtomicFlag) FetchAdd(p *sim.Proc, core int, d uint64) uint64 {
	f.line.FetchAdd(p, core)
	old := f.val
	f.val += d
	return old
}

// Read returns the current value, charging for the line access.
func (f *AtomicFlag) Read(p *sim.Proc, core int) uint64 {
	f.line.Read(p, core)
	return f.val
}

// Peek returns the value without charging.
func (f *AtomicFlag) Peek() uint64 { return f.val }

// WaitGE blocks until the counter reaches v.
func (f *AtomicFlag) WaitGE(p *sim.Proc, core int, v uint64) uint64 {
	for {
		got := f.Read(p, core)
		if got >= v {
			return got
		}
		f.line.AddWaiter(p)
		p.SuspendLazy(f, v, f.val)
	}
}

// Reason renders a WaitGE on the counter for deadlock reports.
func (f *AtomicFlag) Reason(v, have uint64) string {
	return fmt.Sprintf("wait atomic %s >= %d (have %d)", f.Name, v, have)
}
