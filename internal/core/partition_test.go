package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/proto"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// TestReducePartitionProperties: for random message sizes and minimum
// chunks, the shared partition (proto.Slice over the plan's reducer list)
// tiles [0, n) exactly in reducer order, slices are element-aligned, the
// reducers are the non-leader members in ascending rank order, and the
// minimum-chunk rule limits how many members participate.
func TestReducePartitionProperties(t *testing.T) {
	top := topo.Epyc2P()
	w := env.NewWorld(top, top.MustMap(topo.MapCore, 64))
	c := MustNew(w, DefaultConfig())
	st := c.stateFor(0)
	role := &st.plans[0].Lead[0] // the root's 8-member NUMA group
	gs := role.G
	k := len(role.Reducers)
	if k != len(gs.g.Members)-1 {
		t.Fatalf("%d reducers in a group of %d", k, len(gs.g.Members))
	}
	for i, s := range role.Reducers {
		if m := gs.g.Members[s]; m == gs.leader || (i > 0 && m < gs.g.Members[role.Reducers[i-1]]) {
			t.Fatalf("reducer %d is member %d: leader or out of rank order", i, m)
		}
	}

	f := func(nElems uint16, minExp uint8) bool {
		elems := 1 + int(nElems)%5000
		es := 8
		n := elems * es
		minChunk := 1 << (minExp % 14) // 1 .. 8192
		covered, actives, end := 0, 0, 0
		for i := 0; i < k; i++ {
			lo, hi := proto.Slice(n, es, minChunk, k, i)
			if lo > hi || lo%es != 0 || hi%es != 0 {
				return false
			}
			if hi > lo {
				if lo != end {
					return false
				}
				end = hi
				actives++
			}
			covered += hi - lo
		}
		if covered != n {
			return false
		}
		// Minimum-chunk rule: active count never exceeds ceil(n/minChunk).
		maxActive := min((n+minChunk-1)/minChunk, k)
		return actives <= maxActive && actives >= 1
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestTinyMessageSingleReducer: with one element, exactly one member of
// each group reduces (paper Section IV-B).
func TestTinyMessageSingleReducer(t *testing.T) {
	top := topo.Epyc2P()
	w := env.NewWorld(top, top.MustMap(topo.MapCore, 64))
	c := MustNew(w, DefaultConfig())
	role := &c.stateFor(0).plans[0].Lead[0]
	k, active := len(role.Reducers), 0
	for i := 0; i < k; i++ {
		if lo, hi := proto.Slice(8, 8, c.Cfg.ReduceMinChunk, k, i); hi > lo {
			active++
		}
	}
	if active != 1 {
		t.Errorf("active reducers = %d, want 1", active)
	}
}

// TestPipeliningOverlap: with chunking enabled, a leaf member receives its
// first bytes well before the root has finished its last publication —
// i.e. levels overlap (Fig. 5). We detect it by comparing completion times
// of a chunked vs an unchunked configuration.
func TestPipeliningOverlap(t *testing.T) {
	top := topo.Epyc2P()
	const n = 1 << 20
	elapsed := func(chunk int) sim.Duration {
		w := env.NewWorld(top, top.MustMap(topo.MapCore, 64))
		cfg := DefaultConfig()
		cfg.ChunkBytes = []int{chunk}
		c := MustNew(w, cfg)
		bufs := make([]*mem.Buffer, 64)
		for r := range bufs {
			bufs[r] = w.NewBufferAt("b", r, n)
		}
		var worst sim.Duration
		if err := w.Run(func(p *env.Proc) {
			p.HarnessBarrier()
			t0 := p.Now()
			c.Bcast(p, bufs[p.Rank], 0, n, 0)
			if d := p.Now() - t0; d > worst {
				worst = d
			}
		}); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	pipelined := elapsed(32 << 10)
	unpipelined := elapsed(n)
	if float64(pipelined) > 0.8*float64(unpipelined) {
		t.Errorf("chunked (%v) should clearly beat unchunked (%v)",
			sim.FmtTime(pipelined), sim.FmtTime(unpipelined))
	}
}

// TestAllreduceRandomized: property-style correctness over random sizes,
// rank counts and values (both CICO and XPMEM paths).
func TestAllreduceRandomized(t *testing.T) {
	top := topo.Epyc1P()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		nranks := 2 + rng.Intn(30)
		elems := 1 + rng.Intn(700)
		n := elems * 8
		w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
		c := MustNew(w, DefaultConfig())
		sb := make([]*mem.Buffer, nranks)
		rb := make([]*mem.Buffer, nranks)
		want := make([]int64, elems)
		for r := 0; r < nranks; r++ {
			sb[r] = w.NewBufferAt("s", r, n)
			rb[r] = w.NewBufferAt("r", r, n)
			for i := 0; i < elems; i++ {
				v := int64(rng.Intn(1000) - 500)
				writeI64(sb[r].Data, i, v)
				want[i] += v
			}
		}
		if err := w.Run(func(p *env.Proc) {
			c.Allreduce(p, sb[p.Rank], rb[p.Rank], n, mpi.Int64, mpi.Sum)
		}); err != nil {
			t.Fatalf("trial %d (nranks=%d elems=%d): %v", trial, nranks, elems, err)
		}
		for r := 0; r < nranks; r++ {
			for i := 0; i < elems; i++ {
				if got := readI64(rb[r].Data, i); got != want[i] {
					t.Fatalf("trial %d rank %d elem %d: got %d want %d", trial, r, i, got, want[i])
				}
			}
		}
	}
}

func writeI64(b []byte, i int, v int64) {
	for k := 0; k < 8; k++ {
		b[i*8+k] = byte(uint64(v) >> (8 * k))
	}
}

func readI64(b []byte, i int) int64 {
	var u uint64
	for k := 0; k < 8; k++ {
		u |= uint64(b[i*8+k]) << (8 * k)
	}
	return int64(u)
}
