package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/topo"
)

// TestIbcastOverlapAndFusion issues a burst of small same-shape broadcasts
// (fused into one traversal) plus a large one (unfused), overlaps them with
// compute, and checks every payload and completion order.
func TestIbcastOverlapAndFusion(t *testing.T) {
	top := topo.Epyc2P()
	nranks, root := 16, 3
	small, large := 256, 64<<10
	k := 4
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	smallBufs := make([][]*mem.Buffer, nranks)
	largeBufs := make([]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		smallBufs[r] = make([]*mem.Buffer, k)
		for i := 0; i < k; i++ {
			smallBufs[r][i] = w.NewBufferAt(fmt.Sprintf("s%d.%d", r, i), r, small)
			if r == root {
				pattern(i+1, smallBufs[r][i].Data)
			}
		}
		largeBufs[r] = w.NewBufferAt(fmt.Sprintf("l%d", r), r, large)
		if r == root {
			pattern(99, largeBufs[r].Data)
		}
	}
	if err := w.Run(func(p *env.Proc) {
		reqs := make([]*Request, 0, k+1)
		for i := 0; i < k; i++ {
			reqs = append(reqs, c.Ibcast(p, smallBufs[p.Rank][i], 0, small, root))
		}
		reqs = append(reqs, c.Ibcast(p, largeBufs[p.Rank], 0, large, root))
		if got := c.InFlight(); got < int64(len(reqs)) && p.Rank == 0 {
			// All five were just issued from this rank alone.
			t.Errorf("in-flight %d < %d", got, len(reqs))
		}
		p.Compute(1000)
		// FIFO completion per lane: whenever a later request is done, all
		// earlier ones must be too.
		for i := len(reqs) - 1; i > 0; i-- {
			if reqs[i].Done() && !reqs[i-1].Done() {
				t.Errorf("rank %d: request %d done before %d", p.Rank, i, i-1)
			}
		}
		Waitall(p, reqs...)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		for i := 0; i < k; i++ {
			if !bytes.Equal(smallBufs[r][i].Data, smallBufs[root][i].Data) {
				t.Fatalf("rank %d small op %d: wrong payload", r, i)
			}
		}
		if !bytes.Equal(largeBufs[r].Data, largeBufs[root].Data) {
			t.Fatalf("rank %d large op: wrong payload", r)
		}
	}
}

// TestIcollectiveMixedKinds interleaves every non-blocking kind plus a
// blocking call issued while requests are outstanding (the issue-order
// gate diverts it through the queue).
func TestIcollectiveMixedKinds(t *testing.T) {
	top := topo.Epyc2P()
	nranks := 12
	n := 512
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	type bufs struct {
		bc, sb, rb, gin, gout, sroot, sout *mem.Buffer
	}
	bs := make([]bufs, nranks)
	for r := 0; r < nranks; r++ {
		bs[r] = bufs{
			bc:    w.NewBufferAt(fmt.Sprintf("bc%d", r), r, n),
			sb:    w.NewBufferAt(fmt.Sprintf("sb%d", r), r, n),
			rb:    w.NewBufferAt(fmt.Sprintf("rb%d", r), r, n),
			gin:   w.NewBufferAt(fmt.Sprintf("gi%d", r), r, 64),
			gout:  w.NewBufferAt(fmt.Sprintf("go%d", r), r, 64*nranks),
			sroot: w.NewBufferAt(fmt.Sprintf("sr%d", r), r, 64*nranks),
			sout:  w.NewBufferAt(fmt.Sprintf("so%d", r), r, 64),
		}
		pattern(0, bs[0].bc.Data)
		vals := make([]float64, n/8)
		for i := range vals {
			vals[i] = float64(r + i)
		}
		mpi.EncodeFloat64s(bs[r].sb.Data, vals)
		pattern(r+40, bs[r].gin.Data)
		pattern(77, bs[0].sroot.Data)
	}
	if err := w.Run(func(p *env.Proc) {
		me := &bs[p.Rank]
		r1 := c.Ibcast(p, me.bc, 0, n, 0)
		r2 := c.Iallreduce(p, me.sb, me.rb, n, mpi.Float64, mpi.Sum)
		r3 := c.Ibarrier(p)
		r4 := c.Iallgather(p, me.gin, me.gout, 64)
		r5 := c.Iscatter(p, me.sroot, me.sout, 64, 0)
		// A blocking barrier while five requests are in flight: must run
		// after all of them on this rank.
		c.Barrier(p)
		for _, r := range []*Request{r1, r2, r3, r4, r5} {
			if !r.Done() {
				t.Errorf("rank %d: blocking call overtook an outstanding request", p.Rank)
			}
		}
		// Requests are consumed in mixed Test/Wait style.
		for !r5.Test(p) {
		}
		Waitall(p, r1, r2, r3, r4)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		if !bytes.Equal(bs[r].bc.Data, bs[0].bc.Data) {
			t.Fatalf("rank %d: bcast payload wrong", r)
		}
		got := make([]float64, n/8)
		mpi.DecodeFloat64s(bs[r].rb.Data, got)
		for i := range got {
			want := 0.0
			for rr := 0; rr < nranks; rr++ {
				want += float64(rr + i)
			}
			if got[i] != want {
				t.Fatalf("rank %d: allreduce[%d] = %v want %v", r, i, got[i], want)
			}
		}
		for rr := 0; rr < nranks; rr++ {
			if !bytes.Equal(bs[r].gout.Data[rr*64:(rr+1)*64], bs[rr].gin.Data) {
				t.Fatalf("rank %d: allgather block %d wrong", r, rr)
			}
		}
		if !bytes.Equal(bs[r].sout.Data, bs[0].sroot.Data[r*64:(r+1)*64]) {
			t.Fatalf("rank %d: scatter block wrong", r)
		}
	}
}

// TestSplitConcurrentComms runs collectives concurrently on a parent
// communicator and two overlapping split children sharing the same world,
// memory system and flag space — the tags keep the control lines disjoint.
func TestSplitConcurrentComms(t *testing.T) {
	top := topo.Epyc2P()
	nranks := 12
	n := 4 << 10
	w := world(t, top, nranks)
	parent := MustNew(w, DefaultConfig())
	subA := []int{0, 2, 4, 6, 8, 10}
	subB := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ca, err := parent.Split(subA, "a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := parent.Split(subB, "b")
	if err != nil {
		t.Fatal(err)
	}
	inA := make(map[int]int, len(subA)) // parent rank -> sub rank
	for i, r := range subA {
		inA[r] = i
	}
	inB := make(map[int]int, len(subB))
	for i, r := range subB {
		inB[r] = i
	}
	mk := func(tag string, r int) *mem.Buffer {
		return w.NewBufferAt(fmt.Sprintf("%s%d", tag, r), r, n)
	}
	pbufs := make([]*mem.Buffer, nranks)
	abufs := make([]*mem.Buffer, nranks)
	bbufs := make([]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		pbufs[r] = mk("p", r)
		abufs[r] = mk("a", r)
		bbufs[r] = mk("b", r)
	}
	pattern(1, pbufs[0].Data)
	pattern(2, abufs[subA[1]].Data) // root = sub rank 1 of comm A
	pattern(3, bbufs[subB[0]].Data)
	if err := w.Run(func(p *env.Proc) {
		var reqs []*Request
		reqs = append(reqs, parent.Ibcast(p, pbufs[p.Rank], 0, n, 0))
		if i, ok := inA[p.Rank]; ok {
			pa := ca.W.ProcOn(p.S, i)
			reqs = append(reqs, ca.Ibcast(pa, abufs[p.Rank], 0, n, 1))
		}
		if i, ok := inB[p.Rank]; ok {
			pb := cb.W.ProcOn(p.S, i)
			reqs = append(reqs, cb.Ibcast(pb, bbufs[p.Rank], 0, n, 0))
		}
		Waitall(p, reqs...)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		if !bytes.Equal(pbufs[r].Data, pbufs[0].Data) {
			t.Fatalf("parent comm: rank %d wrong", r)
		}
	}
	for _, r := range subA {
		if !bytes.Equal(abufs[r].Data, abufs[subA[1]].Data) {
			t.Fatalf("comm A: rank %d wrong", r)
		}
	}
	for _, r := range subB {
		if !bytes.Equal(bbufs[r].Data, bbufs[subB[0]].Data) {
			t.Fatalf("comm B: rank %d wrong", r)
		}
	}
}

// TestFusedRaggedBatches forces ragged batch boundaries: the root issues
// its small broadcasts in two separated bursts while members issue all of
// them up front, so member batches span two root batches.
func TestFusedRaggedBatches(t *testing.T) {
	top := topo.Epyc2P()
	nranks, root := 16, 0
	small, k := 128, 6
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	bufs := make([][]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		bufs[r] = make([]*mem.Buffer, k)
		for i := 0; i < k; i++ {
			bufs[r][i] = w.NewBufferAt(fmt.Sprintf("f%d.%d", r, i), r, small)
			if r == root {
				pattern(i+7, bufs[r][i].Data)
			}
		}
	}
	if err := w.Run(func(p *env.Proc) {
		reqs := make([]*Request, 0, k)
		if p.Rank == root {
			for i := 0; i < k/2; i++ {
				reqs = append(reqs, c.Ibcast(p, bufs[p.Rank][i], 0, small, root))
			}
			p.Compute(5000) // let the first root batch retire before the rest queue
			for i := k / 2; i < k; i++ {
				reqs = append(reqs, c.Ibcast(p, bufs[p.Rank][i], 0, small, root))
			}
		} else {
			for i := 0; i < k; i++ {
				reqs = append(reqs, c.Ibcast(p, bufs[p.Rank][i], 0, small, root))
			}
		}
		Waitall(p, reqs...)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		for i := 0; i < k; i++ {
			if !bytes.Equal(bufs[r][i].Data, bufs[root][i].Data) {
				t.Fatalf("rank %d op %d: wrong payload", r, i)
			}
		}
	}
}

// TestResultBufferCheckedAtEntry gives one rank a result buffer too short
// for the op: that rank must fail at entry with the boundary message, not
// a peer that later copies from its buffer. Allreduce checks every rank's
// rbuf, Reduce only the root's (the others' are ignored).
func TestResultBufferCheckedAtEntry(t *testing.T) {
	const nranks, n = 8, 64 << 10
	for _, tc := range []struct {
		name      string
		bad, root int
		rooted    bool
	}{
		{"allreduce", 0, 0, false},
		{"reduce", 3, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := world(t, topo.Epyc2P(), nranks)
			c := MustNew(w, DefaultConfig())
			sb := make([]*mem.Buffer, nranks)
			rb := make([]*mem.Buffer, nranks)
			for r := range sb {
				sb[r] = w.NewBufferAt(fmt.Sprintf("sb%d", r), r, n)
				size := n
				if r == tc.bad {
					size = 8
				}
				rb[r] = w.NewBufferAt(fmt.Sprintf("rb%d", r), r, size)
			}
			err := w.Run(func(p *env.Proc) {
				if tc.rooted {
					c.Reduce(p, sb[p.Rank], rb[p.Rank], n, mpi.Float64, mpi.Sum, tc.root)
				} else {
					c.Allreduce(p, sb[p.Rank], rb[p.Rank], n, mpi.Float64, mpi.Sum)
				}
			})
			want := fmt.Sprintf("process rank%d(#%d) panicked: core: range [0:+%d) out of buffer size 8", tc.bad, tc.bad, n)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want it to contain %q", err, want)
			}
		})
	}
}

// TestQueuedBlockingRecordsBytes: a blocking broadcast issued behind an
// outstanding Ibcast runs through the request queue, and its request
// flight record carries the op's size.
func TestQueuedBlockingRecordsBytes(t *testing.T) {
	observe(t, false)
	const nranks, small, large = 4, 64, 4096
	w := world(t, topo.Epyc2P(), nranks)
	c := MustNew(w, DefaultConfig())
	sm := make([]*mem.Buffer, nranks)
	lg := make([]*mem.Buffer, nranks)
	for r := range sm {
		sm[r] = w.NewBufferAt(fmt.Sprintf("sm%d", r), r, small)
		lg[r] = w.NewBufferAt(fmt.Sprintf("lg%d", r), r, large)
	}
	if err := w.Run(func(p *env.Proc) {
		req := c.Ibcast(p, sm[p.Rank], 0, small, 0)
		c.Bcast(p, lg[p.Rank], 0, large, 0)
		req.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		var sizes []int64
		for _, rec := range w.Obs.Rec.Flight().LaneRecords(r) {
			if rec.Kind == obs.RecRequest {
				sizes = append(sizes, rec.Bytes)
			}
		}
		if len(sizes) != 2 || sizes[0] != small || sizes[1] != large {
			t.Errorf("rank %d request record sizes %v, want [%d %d]", r, sizes, small, large)
		}
	}
}
