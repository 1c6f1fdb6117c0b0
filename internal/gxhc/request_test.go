package gxhc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xhc/internal/obs"
)

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("no panic, want %q", want)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want %q", msg, want)
		}
	}()
	f()
}

// TestIcallArgsCheckedAtIssue: every rejected I-call panics on the
// caller's goroutine, where it can be recovered, and leaves nothing
// queued — a following Ibcast on the same lane completes.
func TestIcallArgsCheckedAtIssue(t *testing.T) {
	const n = 2
	c := MustNew(n, DefaultConfig())
	defer c.Close()
	mustPanic(t, "gxhc: allgather out length 4, want 16", func() { c.Iallgather(0, make([]byte, 8), make([]byte, 4)) })
	mustPanic(t, "gxhc: scatter in length 4, want 8", func() { c.Iscatter(0, make([]byte, 4), make([]byte, 4), 0) })
	mustPanic(t, "gxhc: root 2 out of range [0,2)", func() { c.Ibcast(0, make([]byte, 8), 2) })
	mustPanic(t, "gxhc: root -1 out of range [0,2)", func() { c.Iscatter(0, nil, make([]byte, 4), -1) })
	mustPanic(t, "gxhc: dst length 4, src length 16", func() { c.Iallreduce(0, make([]float64, 4), make([]float64, 16), OpSum) })
	mustPanic(t, "gxhc: dst length 4, src length 16", func() { c.Ireduce(0, make([]float64, 4), make([]float64, 16), 0, OpSum) })
	if c.InFlight() != 0 || c.nb[0].Gated() {
		t.Fatalf("rejected calls left %d requests in flight", c.InFlight())
	}
	bufs := [][]byte{[]byte("payload!"), make([]byte, 8)}
	runAll(n, func(rank int) { c.Ibcast(rank, bufs[rank], 0).Wait() })
	if !bytes.Equal(bufs[1], bufs[0]) {
		t.Fatalf("Ibcast after the rejected calls delivered %q", bufs[1])
	}
}

// TestResultBufferCheckedAtEntry: a result buffer shorter than src (every
// rank's for an allreduce, the root's for a reduce) is rejected before any
// flag is touched, so the call can be made on one rank alone and
// recovered, and the communicator stays usable.
func TestResultBufferCheckedAtEntry(t *testing.T) {
	const n = 2
	c := MustNew(n, DefaultConfig())
	mustPanic(t, "gxhc: dst length 4, src length 16", func() { c.ReduceFloat64(0, make([]float64, 4), make([]float64, 16), 0) })
	mustPanic(t, "gxhc: dst length 4, src length 16", func() { c.AllreduceFloat64(1, make([]float64, 4), make([]float64, 16)) })
	dst := [][]float64{make([]float64, 16), nil} // rank 1's dst is ignored
	runAll(n, func(rank int) {
		src := make([]float64, 16)
		for i := range src {
			src[i] = float64(rank + 1)
		}
		c.ReduceFloat64(rank, dst[rank], src, 0)
	})
	for i, v := range dst[0] {
		if v != 3 {
			t.Fatalf("reduce after the rejected calls: dst[%d] = %v, want 3", i, v)
		}
	}
}

// TestQueuedBlockingRecordsBytes: a blocking broadcast issued behind an
// outstanding request runs through the request queue, and its request
// flight record carries the op's size. Rank 1 arrives at the barrier
// only once rank 0 has queued its broadcast, so the Ibarrier is still
// outstanding when rank 0 calls Bcast.
func TestQueuedBlockingRecordsBytes(t *testing.T) {
	const n, large = 2, 4096
	c := MustNew(n, DefaultConfig())
	defer c.Close()
	reg := obs.NewRegistry(false)
	wo := reg.NewWorld("gxhc", n, obs.WallTicksPerUS, obs.WallClock())
	wo.Rec.SetQuiesceDumps(true)
	c.AttachRecorder(wo.Rec)
	runAll(n, func(rank int) {
		if rank == 0 {
			r := c.Ibarrier(0)
			c.Bcast(0, make([]byte, large), 0)
			r.Wait()
			return
		}
		for c.InFlight() < 2 {
			runtime.Gosched()
		}
		c.Barrier(1)
		c.Bcast(1, make([]byte, large), 0)
	})
	var sizes []int64
	for _, rec := range wo.Rec.Flight().LaneRecords(0) {
		if rec.Kind == obs.RecRequest {
			sizes = append(sizes, rec.Bytes)
		}
	}
	if len(sizes) != 2 || sizes[0] != 0 || sizes[1] != large {
		t.Errorf("request record sizes %v, want [0 %d]", sizes, large)
	}
}
