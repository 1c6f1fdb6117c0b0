package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine is the discrete-event scheduler. It is not safe for concurrent
// use from multiple goroutines except through the Proc handshake, which
// guarantees that only one party runs at a time.
type Engine struct {
	now  Time
	seq  uint64
	heap eventHeap

	procs    []*Proc
	live     int // procs that have not finished
	failure  error
	stopping bool

	// Schedule-exploration hooks (schedule.go): tie orders simultaneous
	// events, wakeJitter delays wakeups, schedHash fingerprints the
	// executed schedule. All nil/zero by default: the FIFO path is
	// unchanged.
	tie        TieBreaker
	wakeJitter func() Duration
	hashOn     bool
	schedHash  uint64

	stats EngineStats
}

// EngineStats counts scheduler work, for perf regression tests and the
// simulator benchmarks (DESIGN.md §8).
type EngineStats struct {
	EventsScheduled int64 // total At/After/Go/Wake pushes
	EventsRun       int64 // events popped and executed
	MaxHeapLen      int   // high-water mark of pending events
}

// Stats returns a snapshot of the scheduler counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// HeapLen returns the number of currently pending events.
func (e *Engine) HeapLen() int { return e.heap.Len() }

// NewEngine returns an empty engine at virtual time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Clock returns a reusable closure reading the engine's virtual time — the
// clock hook span tracers record against. One closure serves any number of
// spans, so handing it out keeps tracing off the allocation paths.
func (e *Engine) Clock() func() int64 { return func() int64 { return e.now } }

// At schedules fn to run at virtual time t (>= Now). Scheduling in the past
// panics: it would make the clock non-monotonic.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %s before now %s", FmtTime(t), FmtTime(e.now)))
	}
	e.seq++
	e.heap.push(event{at: t, prio: e.eventPrio(), seq: e.seq, fn: fn})
	e.stats.EventsScheduled++
	if n := e.heap.Len(); n > e.stats.MaxHeapLen {
		e.stats.MaxHeapLen = n
	}
}

// eventPrio consults the installed tie-breaker (0, the FIFO priority,
// without one). Must run after e.seq is advanced.
func (e *Engine) eventPrio() uint64 {
	if e.tie == nil {
		return 0
	}
	return e.tie.Priority(e.seq)
}

// AtTag schedules fn(tag) at virtual time t. It behaves exactly like At
// but lets callers reuse one long-lived closure for many events, keeping
// allocation out of the scheduling hot path.
func (e *Engine) AtTag(t Time, tag uint64, fn func(uint64)) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %s before now %s", FmtTime(t), FmtTime(e.now)))
	}
	e.seq++
	e.heap.push(event{at: t, prio: e.eventPrio(), seq: e.seq, tagFn: fn, tag: tag})
	e.stats.EventsScheduled++
	if n := e.heap.Len(); n > e.stats.MaxHeapLen {
		e.stats.MaxHeapLen = n
	}
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Go spawns a simulated process running fn. The process starts at the
// current virtual time, after already-pending events at this timestamp.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		ID:     len(e.procs),
		Name:   name,
		eng:    e,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	// One reusable closure per process: Sleep/YieldStep re-arm stepFn and
	// Wake re-arms wakeFn on every call, so the simulation hot loop
	// schedules events without allocating.
	p.stepFn = func() { e.step(p) }
	p.wakeFn = func(token uint64) {
		if p.suspended && p.suspendToken == token {
			p.suspended = false // consume before stepping: step may re-suspend
			e.step(p)
		}
	}
	e.procs = append(e.procs, p)
	e.live++
	go p.run(fn)
	e.At(e.now, func() { e.step(p) })
	return p
}

// step hands control to p until it blocks again or finishes.
func (e *Engine) step(p *Proc) {
	if p.finished {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
	if p.finished {
		e.live--
	}
}

// fail records the first failure; the engine stops at the next event.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopping = true
}

// Run processes events until every process has finished. It returns an
// error if a process panicked, or if the event queue drains while
// processes are still suspended (a deadlock).
func (e *Engine) Run() error {
	for {
		if e.stopping {
			e.drainProcs()
			return e.failure
		}
		if e.heap.Len() == 0 {
			if e.live == 0 {
				return e.failure
			}
			return e.deadlockError()
		}
		ev := e.heap.pop()
		e.now = ev.at
		e.stats.EventsRun++
		if e.hashOn {
			e.hashEvent(ev.at, ev.seq)
		}
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.tagFn(ev.tag)
		}
	}
}

// RunUntilBlocked processes events until either every process has finished
// (done=true) or the event queue drains while processes are still suspended
// (done=false). Unlike Run, draining with live processes is not an error
// here: it is the synchronization point a sharded cluster coordinator
// (internal/env.ClusterWorld) resolves by delivering cross-shard wakeups
// and calling RunUntilBlocked again. A process failure surfaces as err
// exactly as it would from Run.
func (e *Engine) RunUntilBlocked() (done bool, err error) {
	for {
		if e.stopping {
			e.drainProcs()
			return true, e.failure
		}
		if e.heap.Len() == 0 {
			if e.live == 0 {
				return true, e.failure
			}
			return false, nil
		}
		ev := e.heap.pop()
		e.now = ev.at
		e.stats.EventsRun++
		if e.hashOn {
			e.hashEvent(ev.at, ev.seq)
		}
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.tagFn(ev.tag)
		}
	}
}

// Live returns the number of processes that have not finished.
func (e *Engine) Live() int { return e.live }

// BlockedError renders the suspended-process report of a blocked engine
// (the same text Run would return as a deadlock error). Cluster coordinators
// use it to aggregate a cross-shard deadlock report.
func (e *Engine) BlockedError() error { return e.deadlockError() }

// drainProcs unblocks goroutines of unfinished procs so they can exit.
// After a failure we simply abandon them: they stay parked on their resume
// channel and become garbage once the engine is dropped. (Goroutines
// blocked on a channel with no other reference are collected by the Go
// runtime's deadlock-free shutdown at process exit; within tests the
// leaked goroutines are inert.)
func (e *Engine) drainProcs() {}

// deadlockError reports which processes are stuck and why.
func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if !p.finished {
			reason := p.waitReason
			if p.waitWhy != nil {
				reason = p.waitWhy.Reason(p.waitA, p.waitB)
			}
			if p.waitUntil != 0 {
				reason = fmt.Sprintf("%s until %s", reason, FmtTime(p.waitUntil))
			}
			stuck = append(stuck, fmt.Sprintf("%s(#%d): %s", p.Name, p.ID, reason))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: deadlock at %s, %d processes suspended:\n  %s",
		FmtTime(e.now), len(stuck), strings.Join(stuck, "\n  "))
}
