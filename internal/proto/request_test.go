package proto_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"xhc/internal/proto"
)

// testReq is the fake backend's request.
type testReq struct {
	proto.Req
	id int
}

// fakeLane is a goroutine backend for the request lane, shaped like real
// memory's: a channel queue drained by one worker goroutine. It logs what
// the worker ran; the log is the worker's until Drain returns.
type fakeLane struct {
	q     chan *testReq
	log   []string
	woken []int
	rec   fakeRec
}

func (b *fakeLane) Next(wait bool) (*testReq, bool) {
	if wait {
		r, ok := <-b.q
		return r, ok
	}
	select {
	case r, ok := <-b.q:
		return r, ok
	default:
		return nil, false
	}
}

func (b *fakeLane) Run(r *testReq) { b.log = append(b.log, fmt.Sprintf("run %d", r.id)) }

func (b *fakeLane) RunFused(batch []*testReq) {
	ids := make([]int, len(batch))
	for i, r := range batch {
		ids[i] = r.id
	}
	b.log = append(b.log, fmt.Sprintf("fused %v", ids))
}

func (b *fakeLane) Wake(r *testReq)     { b.woken = append(b.woken, r.id) }
func (b *fakeLane) Obs() proto.Recorder { return &b.rec }

// fakeRec counts what the lane reports; the issuing goroutine and the
// worker both call it.
type fakeRec struct {
	aborts, batches, records, bytes atomic.Int64
}

func (f *fakeRec) Now() int64 { return 1 }
func (f *fakeRec) Request(_ int, _ uint64, _, _, bytes int64) {
	f.records.Add(1)
	f.bytes.Add(bytes)
}
func (f *fakeRec) NoteInflight(int64) {}
func (f *fakeRec) CountFuseAbort()    { f.aborts.Add(1) }
func (f *fakeRec) CountFusedBatch(int, int64) {
	f.batches.Add(1)
}

// op is one issued call: a kind, root and size, blocking or not.
type op struct {
	kind     proto.Kind
	root, n  int
	blocking bool
}

// bc is a non-blocking broadcast of n bytes from root.
func bc(root, n int) op { return op{kind: proto.KindBcast, root: root, n: n} }

// newLane makes rank 0's lane with a 64-byte fusion threshold.
func newLane(chaos *proto.Chaos, inflight *atomic.Int64) *proto.Lane[*testReq] {
	l := &proto.Lane[*testReq]{}
	l.Init(0, 64, chaos, inflight)
	return l
}

// drainAll issues ops on one lane, then runs its worker goroutine to the
// end of the closed queue.
func drainAll(t *testing.T, chaos proto.Chaos, ops ...op) (*fakeLane, *proto.Lane[*testReq], []*testReq) {
	t.Helper()
	var inflight atomic.Int64
	l := newLane(&chaos, &inflight)
	b := &fakeLane{q: make(chan *testReq, len(ops))}
	rs := make([]*testReq, len(ops))
	for i, o := range ops {
		rs[i] = &testReq{id: i}
		rs[i].Init(o.kind, o.root, o.n)
		l.Issue(rs[i], !o.blocking, &b.rec)
		b.q <- rs[i]
	}
	close(b.q)
	done := make(chan struct{})
	go func() {
		proto.Drain(l, b)
		close(done)
	}()
	<-done
	return b, l, rs
}

// TestLaneFIFO issues mixed requests while the worker drains them: a later
// request is never done before an earlier one, and completion (the wake
// order) is issue order.
func TestLaneFIFO(t *testing.T) {
	var inflight atomic.Int64
	var chaos proto.Chaos
	l := newLane(&chaos, &inflight)
	b := &fakeLane{q: make(chan *testReq, 64)}
	done := make(chan struct{})
	go func() {
		proto.Drain(l, b)
		close(done)
	}()
	const n = 40
	rs := make([]*testReq, n)
	check := func() {
		for i := n - 1; i > 0; i-- {
			if rs[i] != nil && rs[i].Done() && !rs[i-1].Done() {
				t.Fatalf("request %d done before %d", i, i-1)
			}
		}
	}
	for i := range rs {
		r := &testReq{id: i}
		switch i % 4 {
		case 0, 1:
			r.Init(proto.KindBcast, 0, 8)
		case 2:
			r.Init(proto.KindAllreduce, 0, 64)
		default:
			r.Init(proto.KindBcast, i%3, 32)
		}
		l.Issue(r, true, &b.rec)
		rs[i] = r
		b.q <- r
		check()
	}
	for !rs[n-1].Done() {
		check()
		runtime.Gosched()
	}
	check()
	close(b.q)
	<-done
	for i, id := range b.woken {
		if id != i {
			t.Fatalf("completion order %v, want issue order", b.woken)
		}
	}
	if len(b.woken) != n || l.Gated() || inflight.Load() != 0 {
		t.Fatalf("%d completed, gated %v, in flight %d", len(b.woken), l.Gated(), inflight.Load())
	}
}

// TestLaneBatches pins batch formation: maximal same-shape runs capped at
// MaxFuseBatch, a shape change that ends a batch and counts one abort, a
// non-fusable request inside a run, and the fusion rule itself.
func TestLaneBatches(t *testing.T) {
	runOf := func(k int, o op) []op {
		ops := make([]op, k)
		for i := range ops {
			ops[i] = o
		}
		return ops
	}
	for _, tc := range []struct {
		name   string
		ops    []op
		want   []string
		aborts int64
	}{
		{"capped", runOf(2*proto.MaxFuseBatch+3, bc(0, 8)),
			[]string{"fused [0 1 2 3 4 5 6 7]", "fused [8 9 10 11 12 13 14 15]", "fused [16 17 18]"}, 0},
		{"size-change", []op{bc(0, 8), bc(0, 8), bc(0, 8), bc(0, 16), bc(0, 16)},
			[]string{"fused [0 1 2]", "fused [3 4]"}, 1},
		{"root-change", []op{bc(0, 8), bc(2, 8), bc(2, 8)},
			[]string{"fused [0]", "fused [1 2]"}, 1},
		{"non-fusable", []op{bc(0, 8), bc(0, 8), {kind: proto.KindBarrier}, bc(0, 8), bc(0, 8)},
			[]string{"fused [0 1]", "run 2", "fused [3 4]"}, 0},
		{"not-fusable", []op{bc(0, 0), bc(0, 65), {kind: proto.KindBcast, n: 8, blocking: true}, {kind: proto.KindAllreduce, n: 8}},
			[]string{"run 0", "run 1", "run 2", "run 3"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, l, rs := drainAll(t, proto.Chaos{}, tc.ops...)
			if !reflect.DeepEqual(b.log, tc.want) {
				t.Errorf("worker ran %q, want %q", b.log, tc.want)
			}
			if got := b.rec.aborts.Load(); got != tc.aborts {
				t.Errorf("%d aborts, want %d", got, tc.aborts)
			}
			var bytes int64
			for i, r := range rs {
				if !r.Done() {
					t.Errorf("request %d not done", i)
				}
				bytes += int64(r.N)
			}
			if b.rec.records.Load() != int64(len(rs)) || b.rec.bytes.Load() != bytes || l.Gated() {
				t.Errorf("%d records of %d bytes (want %d of %d), gated %v",
					b.rec.records.Load(), b.rec.bytes.Load(), len(rs), bytes, l.Gated())
			}
		})
	}
}

// TestLaneEarlyComplete: the mutation completes every request without
// running a body or a fused traversal, and counts no batch.
func TestLaneEarlyComplete(t *testing.T) {
	b, _, rs := drainAll(t, proto.Chaos{EarlyComplete: true},
		bc(0, 8), bc(0, 8), op{kind: proto.KindAllgather, n: 8}, bc(0, 8))
	if len(b.log) != 0 || b.rec.batches.Load() != 0 {
		t.Errorf("ran %q and counted %d batches, want neither", b.log, b.rec.batches.Load())
	}
	for i, r := range rs {
		if !r.Done() {
			t.Errorf("request %d not done", i)
		}
	}
}

// TestLaneLostProgress: the mutation runs every body but completes
// nothing, so a bounded Done peek never sees one finish and the lane
// stays gated.
func TestLaneLostProgress(t *testing.T) {
	b, l, rs := drainAll(t, proto.Chaos{LostProgress: true}, bc(0, 8), bc(0, 8), op{kind: proto.KindBarrier})
	if want := []string{"fused [0 1]", "run 2"}; !reflect.DeepEqual(b.log, want) {
		t.Errorf("worker ran %q, want %q", b.log, want)
	}
	for poll := 0; poll < 100; poll++ {
		for i, r := range rs {
			if r.Done() {
				t.Fatalf("request %d completed", i)
			}
		}
		runtime.Gosched()
	}
	if !l.Gated() || len(b.woken) != 0 {
		t.Errorf("gated %v, woke %v: want gated, none woken", l.Gated(), b.woken)
	}
}
