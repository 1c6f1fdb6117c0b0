package shm

import (
	"fmt"
	"testing"

	"xhc/internal/mem"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

func TestSingleWriterEnforced(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "f", 0)
	s.Eng.Go("intruder", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("non-owner write should panic")
			}
		}()
		f.Set(p, 3, 1)
	})
	_ = s.Eng.Run()
}

func TestFlagBackwardsPanics(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "f", 0)
	err := func() error {
		s.Eng.Go("owner", func(p *sim.Proc) {
			f.Set(p, 0, 5)
			f.Set(p, 0, 4)
		})
		return s.Eng.Run()
	}()
	if err == nil {
		t.Error("backwards set should fail the run")
	}
}

func TestWaitGEWakesOnWrite(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "counter", 0)
	var observed uint64
	var when sim.Time
	s.Eng.Go("reader", func(p *sim.Proc) {
		observed = f.WaitGE(p, 8, 3)
		when = p.Now()
	})
	s.Eng.Go("owner", func(p *sim.Proc) {
		for v := uint64(1); v <= 3; v++ {
			p.Sleep(1 * sim.Microsecond)
			f.Set(p, 0, v)
		}
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if observed < 3 {
		t.Errorf("observed %d, want >= 3", observed)
	}
	if when < 3*sim.Microsecond {
		t.Errorf("reader returned at %s, before the third write", sim.FmtTime(when))
	}
}

func TestWaitGEImmediate(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "f", 0)
	s.Eng.Go("owner", func(p *sim.Proc) {
		f.Set(p, 0, 10)
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	s.Eng.Go("reader", func(p *sim.Proc) {
		got = f.WaitGE(p, 5, 10)
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("got %d, want 10", got)
	}
}

func TestManyWaitersAllWake(t *testing.T) {
	s := mem.Default(topo.Epyc2P())
	f := NewFlag(s, "go", 0)
	done := 0
	for r := 1; r < 64; r++ {
		core := r
		s.Eng.Go(fmt.Sprintf("w%d", r), func(p *sim.Proc) {
			f.WaitGE(p, core, 1)
			done++
		})
	}
	s.Eng.Go("owner", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		f.Set(p, 0, 1)
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 63 {
		t.Errorf("done = %d, want 63", done)
	}
}

func TestAtomicFetchAddSerializesAndCounts(t *testing.T) {
	s := mem.Default(topo.ArmN1())
	f := NewAtomicFlag(s, "ctr", 0)
	olds := map[uint64]bool{}
	for r := 0; r < 40; r++ {
		core := r
		s.Eng.Go(fmt.Sprintf("a%d", r), func(p *sim.Proc) {
			old := f.FetchAdd(p, core, 1)
			if olds[old] {
				t.Errorf("duplicate old value %d: fetch-add not serialized", old)
			}
			olds[old] = true
		})
	}
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Peek() != 40 {
		t.Errorf("final = %d, want 40", f.Peek())
	}
}

func TestAtomicWaitGE(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewAtomicFlag(s, "ctr", 0)
	var done bool
	s.Eng.Go("waiter", func(p *sim.Proc) {
		f.WaitGE(p, 31, 8)
		done = true
	})
	for r := 0; r < 8; r++ {
		core := r
		s.Eng.Go(fmt.Sprintf("inc%d", r), func(p *sim.Proc) {
			p.Sleep(sim.Microsecond * sim.Duration(core+1))
			f.FetchAdd(p, core, 1)
		})
	}
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("waiter did not complete")
	}
}

// TestSharedLineFalseSharing: two flags on one line; a write to flag A
// invalidates readers of flag B (they pay a fetch on their next read).
func TestSharedLineFalseSharing(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	line := s.NewLine(0)
	fa := NewFlagOnLine(s, "a", 0, line)
	fb := NewFlagOnLine(s, "b", 0, line)
	var cheap, costly sim.Duration
	s.Eng.Go("seq", func(p *sim.Proc) {
		// Reader on a far core warms the line via flag B.
		fb.Read(p, 8)
		t0 := p.Now()
		fb.Read(p, 8)
		cheap = p.Now() - t0
		p.Sleep(sim.Microsecond)
		// Owner writes flag A -> same line -> B's reader must refetch.
		fa.Set(p, 0, 1)
		t1 := p.Now()
		fb.Read(p, 8)
		costly = p.Now() - t1
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if costly <= cheap {
		t.Errorf("false sharing should make re-read costly: %v vs %v", cheap, costly)
	}
}

// TestWaitAllZeroAllocs pins the gather's allocation count: with every
// flag already at its target, WaitAllGE and WaitAllTargets over up to
// waitInline flags allocate nothing (the pending set and line list stay
// on the stack), so leader ack collection costs no garbage per op.
func TestWaitAllZeroAllocs(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	flags := make([]*Flag, waitInline)
	targets := make([]uint64, len(flags))
	for i := range flags {
		flags[i] = NewFlag(s, fmt.Sprintf("f%d", i), i)
		targets[i] = uint64(i + 1)
	}
	for i, f := range flags {
		s.Eng.Go(fmt.Sprintf("owner%d", i), func(p *sim.Proc) { f.Set(p, i, uint64(i+1)) })
	}
	var ge, tg float64
	s.Eng.Go("leader", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		ge = testing.AllocsPerRun(50, func() { WaitAllGE(p, 0, flags, 1) })
		tg = testing.AllocsPerRun(50, func() { WaitAllTargets(p, 0, flags, targets) })
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ge != 0 || tg != 0 {
		t.Errorf("allocs per gather: WaitAllGE %v, WaitAllTargets %v; want 0", ge, tg)
	}
}

// TestDeadlockReportNamesFlagWaits pins the deadlock report of the three
// flag waits byte for byte: their reasons are formatted only when the
// report is built, from the flag and the values stored at suspension.
func TestDeadlockReportNamesFlagWaits(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "xhc.ready", 0)
	g := NewFlag(s, "xhc.ack", 1)
	a := NewAtomicFlag(s, "sm.count", 0)
	s.Eng.Go("owner", func(p *sim.Proc) { f.Set(p, 0, 2) })
	s.Eng.Go("one", func(p *sim.Proc) { f.WaitGE(p, 4, 3) })
	s.Eng.Go("all", func(p *sim.Proc) { WaitAllGE(p, 5, []*Flag{f, g}, 2) })
	s.Eng.Go("atomic", func(p *sim.Proc) { a.WaitGE(p, 6, 1) })
	err := s.Eng.Run()
	if err == nil {
		t.Fatal("run ended without a deadlock")
	}
	want := "sim: deadlock at 107.000ns, 3 processes suspended:\n" +
		"  all(#2): wait 1 flags (first: xhc.ack >= 2)\n" +
		"  atomic(#3): wait atomic sm.count >= 1 (have 0)\n" +
		"  one(#1): wait xhc.ready >= 3 (have 2)"
	if err.Error() != want {
		t.Errorf("deadlock report:\n%s\nwant:\n%s", err, want)
	}
}

// TestWaitGESuspendZeroAllocs pins a flag wait that suspends and is woken
// by the owner's store at 0 allocs: the reason is not formatted.
func TestWaitGESuspendZeroAllocs(t *testing.T) {
	s := mem.Default(topo.Epyc1P())
	f := NewFlag(s, "f", 0)
	const runs = 50
	s.Eng.Go("owner", func(p *sim.Proc) {
		for v := uint64(1); v <= runs+1; v++ {
			p.Sleep(sim.Microsecond)
			f.Set(p, 0, v)
		}
	})
	var allocs float64
	s.Eng.Go("reader", func(p *sim.Proc) {
		v := uint64(0)
		allocs = testing.AllocsPerRun(runs, func() {
			v++
			f.WaitGE(p, 8, v)
		})
	})
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("allocs per suspending WaitGE: %v, want 0", allocs)
	}
}
