package core

import (
	"bytes"
	"fmt"
	"testing"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/topo"
)

func TestScatterGatherRoundTrip(t *testing.T) {
	top := topo.Epyc2P()
	const nranks = 64
	const block = 512
	w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
	c := MustNew(w, DefaultConfig())
	rootBuf := w.NewBufferAt("root", 0, block*nranks)
	backBuf := w.NewBufferAt("back", 0, block*nranks)
	for i := range rootBuf.Data {
		rootBuf.Data[i] = byte(i * 13)
	}
	mine := make([]*mem.Buffer, nranks)
	for r := range mine {
		mine[r] = w.NewBufferAt(fmt.Sprintf("m%d", r), r, block)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Scatter(p, rootBuf, mine[p.Rank], block, 0)
		c.Gather(p, mine[p.Rank], backBuf, block, 0)
	}); err != nil {
		t.Fatal(err)
	}
	// Each rank got its own block.
	for r := 0; r < nranks; r++ {
		if !bytes.Equal(mine[r].Data, rootBuf.Data[r*block:(r+1)*block]) {
			t.Fatalf("rank %d scatter block wrong", r)
		}
	}
	// The gather reassembled the original.
	if !bytes.Equal(backBuf.Data, rootBuf.Data) {
		t.Fatal("gather did not reassemble the scattered data")
	}
}

func TestScatterGatherNonZeroRoot(t *testing.T) {
	top := topo.Epyc1P()
	const nranks = 32
	const block = 64
	w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
	c := MustNew(w, DefaultConfig())
	rootBuf := w.NewBufferAt("root", 10, block*nranks)
	for i := range rootBuf.Data {
		rootBuf.Data[i] = byte(i)
	}
	mine := make([]*mem.Buffer, nranks)
	for r := range mine {
		mine[r] = w.NewBufferAt("m", r, block)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Scatter(p, rootBuf, mine[p.Rank], block, 10)
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		if mine[r].Data[0] != byte(r*block) {
			t.Fatalf("rank %d block start = %d", r, mine[r].Data[0])
		}
	}
}

func TestAllgather(t *testing.T) {
	top := topo.Epyc2P()
	for _, nranks := range []int{4, 33, 64} {
		for _, block := range []int{8, 4096} {
			w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
			c := MustNew(w, DefaultConfig())
			in := make([]*mem.Buffer, nranks)
			out := make([]*mem.Buffer, nranks)
			for r := range in {
				in[r] = w.NewBufferAt("i", r, block)
				out[r] = w.NewBufferAt("o", r, block*nranks)
				for i := range in[r].Data {
					in[r].Data[i] = byte(r ^ i)
				}
			}
			if err := w.Run(func(p *env.Proc) {
				c.Allgather(p, in[p.Rank], out[p.Rank], block)
			}); err != nil {
				t.Fatalf("nranks=%d block=%d: %v", nranks, block, err)
			}
			for r := 0; r < nranks; r++ {
				for src := 0; src < nranks; src++ {
					got := out[r].Data[src*block : (src+1)*block]
					if !bytes.Equal(got, in[src].Data) {
						t.Fatalf("nranks=%d block=%d: rank %d has wrong block from %d", nranks, block, r, src)
					}
				}
			}
		}
	}
}

func TestAllgatherRepeated(t *testing.T) {
	top := topo.Epyc1P()
	const nranks = 16
	const block = 256
	w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
	c := MustNew(w, DefaultConfig())
	in := make([]*mem.Buffer, nranks)
	out := make([]*mem.Buffer, nranks)
	for r := range in {
		in[r] = w.NewBufferAt("i", r, block)
		out[r] = w.NewBufferAt("o", r, block*nranks)
	}
	if err := w.Run(func(p *env.Proc) {
		for it := 0; it < 3; it++ {
			for i := range in[p.Rank].Data {
				in[p.Rank].Data[i] = byte(p.Rank + it)
			}
			p.Dirty(in[p.Rank])
			p.HarnessBarrier()
			c.Allgather(p, in[p.Rank], out[p.Rank], block)
			if out[p.Rank].Data[5*block] != byte(5+it) {
				t.Errorf("iter %d rank %d stale block", it, p.Rank)
			}
			p.HarnessBarrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWithNewPrimitives(t *testing.T) {
	// Scatter/Gather/Allgather interleave with Bcast/Barrier on the same
	// communicator without corrupting the monotonic counters.
	top := topo.Epyc1P()
	const nranks = 16
	const block = 128
	w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
	c := MustNew(w, DefaultConfig())
	rootBuf := w.NewBufferAt("root", 0, block*nranks)
	for i := range rootBuf.Data {
		rootBuf.Data[i] = byte(i * 7)
	}
	mine := make([]*mem.Buffer, nranks)
	out := make([]*mem.Buffer, nranks)
	bb := make([]*mem.Buffer, nranks)
	for r := range mine {
		mine[r] = w.NewBufferAt("m", r, block)
		out[r] = w.NewBufferAt("o", r, block*nranks)
		bb[r] = w.NewBufferAt("b", r, 2048)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Bcast(p, bb[p.Rank], 0, 2048, 0)
		c.Scatter(p, rootBuf, mine[p.Rank], block, 0)
		c.Barrier(p)
		c.Allgather(p, mine[p.Rank], out[p.Rank], block)
		c.Bcast(p, bb[p.Rank], 0, 64, 3)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[7].Data, rootBuf.Data) {
		t.Error("allgather after scatter did not reconstruct the root buffer")
	}
}

// TestZeroByteOpsCounted: a zero-byte collective of every kind is still
// one collective op, so Comm.Ops counts it once (on rank 0), exactly like
// its non-empty form.
func TestZeroByteOpsCounted(t *testing.T) {
	ops := map[string]func(c *Comm, p *env.Proc, buf *mem.Buffer){
		"bcast":     func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Bcast(p, b, 0, 0, 1) },
		"allreduce": func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Allreduce(p, b, b, 0, mpi.Byte, mpi.Sum) },
		"reduce":    func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Reduce(p, b, b, 0, mpi.Byte, mpi.Sum, 1) },
		"barrier":   func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Barrier(p) },
		"allgather": func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Allgather(p, b, b, 0) },
		"scatter":   func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Scatter(p, b, b, 0, 1) },
		"gather":    func(c *Comm, p *env.Proc, b *mem.Buffer) { c.Gather(p, b, b, 0, 1) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			w := world(t, topo.Epyc1P(), 8)
			c := MustNew(w, DefaultConfig())
			if err := w.Run(func(p *env.Proc) {
				b := p.NewBuffer("b", 8)
				op(c, p, b)
				op(c, p, b)
			}); err != nil {
				t.Fatal(err)
			}
			if c.Ops != 2 {
				t.Errorf("Ops = %d after two zero-byte ops, want 2", c.Ops)
			}
		})
	}
}
