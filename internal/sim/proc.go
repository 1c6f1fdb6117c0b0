package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process. Its function runs on a dedicated goroutine,
// but only while the engine has handed it control; every blocking method
// returns control to the engine.
type Proc struct {
	ID   int
	Name string

	eng    *Engine
	resume chan struct{}
	yield  chan struct{}
	stepFn func()       // reusable e.step(p) closure, set by Engine.Go
	wakeFn func(uint64) // reusable token-checked wake closure, set by Engine.Go

	finished   bool
	waitReason string
	waitUntil  Time // nonzero while sleeping: formatted lazily for reports
	// waitWhy/waitA/waitB are the lazy form of waitReason, rendered only by
	// deadlock reports (the discipline Sleep follows with waitUntil).
	waitWhy      Reason
	waitA, waitB uint64

	// suspendToken invalidates stale wakeups: each Suspend call gets a new
	// token, and Wake calls carrying an old token are ignored.
	suspendToken uint64
	suspended    bool
}

// run is the goroutine body wrapping the user function.
func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			p.eng.fail(fmt.Errorf("sim: process %s(#%d) panicked: %v\n%s",
				p.Name, p.ID, r, debug.Stack()))
		}
		p.finished = true
		p.yield <- struct{}{}
	}()
	fn(p)
}

// yieldToEngine parks the goroutine until the engine resumes it.
func (p *Proc) yieldToEngine() {
	p.yield <- struct{}{}
	<-p.resume
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep advances this process's virtual time by d (elapsing simulated work
// or latency). Other processes run in the meantime.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	// The reason is kept as a constant string plus a timestamp and only
	// formatted in deadlock reports: Sleep is the hottest path in the
	// simulator and must not allocate.
	p.waitReason = "sleeping"
	p.waitUntil = p.eng.now + d
	p.eng.At(p.eng.now+d, p.stepFn)
	p.yieldToEngine()
	p.waitReason = ""
	p.waitUntil = 0
}

// Until sleeps until absolute virtual time t (no-op if t <= Now).
func (p *Proc) Until(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// YieldStep reschedules the process behind all events already pending at
// the current timestamp, without advancing time.
func (p *Proc) YieldStep() {
	p.waitReason = "yield"
	p.eng.At(p.eng.now, p.stepFn)
	p.yieldToEngine()
	p.waitReason = ""
}

// Suspend parks the process indefinitely; some other party must call Wake.
// The reason string appears in deadlock reports. It returns a token that
// identifies this particular suspension.
func (p *Proc) Suspend(reason string) uint64 {
	p.suspendToken++
	p.suspended = true
	p.waitReason = reason
	tok := p.suspendToken
	p.yieldToEngine()
	p.suspended = false
	p.waitReason = ""
	return tok
}

// Reason renders a suspended process's wait reason for a deadlock report
// from the two values its suspension stored.
type Reason interface {
	Reason(a, b uint64) string
}

// SuspendLazy parks the process like Suspend, but defers formatting the
// wait reason until a deadlock report actually needs it: the reason renders
// as why.Reason(a, b). Use it on hot paths (flag waits, the harness
// barrier every rank crosses twice per iteration) where a fmt.Sprintf per
// suspend would put allocation back into the measurement loop.
func (p *Proc) SuspendLazy(why Reason, a, b uint64) uint64 {
	p.suspendToken++
	p.suspended = true
	p.waitWhy, p.waitA, p.waitB = why, a, b
	tok := p.suspendToken
	p.yieldToEngine()
	p.suspended = false
	p.waitWhy = nil
	return tok
}

// NextSuspendToken returns the token that the process's *next* Suspend
// call will receive. A signaler may capture it before the process suspends
// (while the process still holds control) to arm a wake for precisely that
// suspension.
func (p *Proc) NextSuspendToken() uint64 { return p.suspendToken + 1 }

// Waiter is one armed wake: a process and the token of the suspension it
// is about to enter.
type Waiter struct {
	P     *Proc
	Token uint64
}

// Waiter arms a wake for the process's next suspension.
func (p *Proc) Waiter() Waiter { return Waiter{p, p.NextSuspendToken()} }

// WakeAll wakes every waiter at t, in order.
func (e *Engine) WakeAll(ws []Waiter, t Time) {
	for _, w := range ws {
		e.Wake(w.P, w.Token, t)
	}
}

// Wake schedules p to resume at time t, if it is still in the suspension
// identified by token. Stale or duplicate wakeups are ignored, so several
// signalers may race to wake the same process. The token rides on the
// event itself (AtTag), so waking does not allocate a closure. An
// installed wake-jitter hook (fault injection) pushes the wakeup later.
func (e *Engine) Wake(p *Proc, token uint64, t Time) {
	if e.wakeJitter != nil {
		if d := e.wakeJitter(); d > 0 {
			t += d
		}
	}
	e.AtTag(t, token, p.wakeFn)
}

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }
