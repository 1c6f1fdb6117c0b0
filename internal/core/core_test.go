package core

import (
	"bytes"
	"fmt"
	"testing"

	"xhc/internal/env"
	"xhc/internal/hier"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

func world(t *testing.T, top *topo.Topology, nranks int) *env.World {
	t.Helper()
	return env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
}

func pattern(seed int, buf []byte) {
	for i := range buf {
		buf[i] = byte(i*7 + seed*13 + 5)
	}
}

// runBcast executes one broadcast over fresh buffers and checks delivery.
func runBcast(t *testing.T, top *topo.Topology, nranks, n, root int, cfg Config) {
	t.Helper()
	w := world(t, top, nranks)
	c := MustNew(w, cfg)
	bufs := make([]*mem.Buffer, nranks)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n+8)
	}
	pattern(root, bufs[root].Data[4:4+n])
	if err := w.Run(func(p *env.Proc) {
		c.Bcast(p, bufs[p.Rank], 4, n, root)
	}); err != nil {
		t.Fatalf("n=%d root=%d: %v", n, root, err)
	}
	want := bufs[root].Data[4 : 4+n]
	for r := range bufs {
		if !bytes.Equal(bufs[r].Data[4:4+n], want) {
			t.Fatalf("n=%d root=%d: rank %d has wrong data", n, root, r)
		}
	}
}

func TestBcastCorrectnessSizes(t *testing.T) {
	top := topo.Epyc2P()
	for _, n := range []int{1, 4, 64, 1024, 1025, 8 << 10, 100 << 10, 1 << 20} {
		runBcast(t, top, 64, n, 0, DefaultConfig())
	}
}

func TestBcastCorrectnessRoots(t *testing.T) {
	top := topo.Epyc2P()
	for _, root := range []int{0, 1, 10, 31, 32, 63} {
		runBcast(t, top, 64, 32<<10, root, DefaultConfig())
		runBcast(t, top, 64, 64, root, DefaultConfig())
	}
}

func TestBcastAllPlatforms(t *testing.T) {
	for _, top := range topo.Platforms() {
		runBcast(t, top, top.NCores, 16<<10, 0, DefaultConfig())
	}
}

func TestBcastFlatAndSensitivities(t *testing.T) {
	top := topo.Epyc1P()
	for _, s := range []string{"flat", "numa", "numa+socket", "llc+numa+socket"} {
		sens, err := hier.ParseSensitivity(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Sensitivity = sens
		runBcast(t, top, 32, 64<<10, 0, cfg)
	}
}

func TestBcastFlagSchemes(t *testing.T) {
	top := topo.Epyc1P()
	for _, fs := range []FlagScheme{SingleFlag, MultiSharedLine, MultiSeparateLines} {
		cfg := DefaultConfig()
		cfg.Flags = fs
		runBcast(t, top, 32, 64, 0, cfg)     // CICO path
		runBcast(t, top, 32, 64<<10, 0, cfg) // XPMEM path
	}
}

func TestBcastOddRankCounts(t *testing.T) {
	top := topo.Epyc2P()
	for _, nr := range []int{2, 3, 5, 9, 33, 63} {
		runBcast(t, top, nr, 4<<10, 0, DefaultConfig())
		runBcast(t, top, nr, 128, nr-1, DefaultConfig())
	}
}

func TestBcastRepeatedOps(t *testing.T) {
	top := topo.Epyc1P()
	w := world(t, top, 32)
	c := MustNew(w, DefaultConfig())
	const n = 8 << 10
	bufs := make([]*mem.Buffer, 32)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n)
	}
	const iters = 5
	if err := w.Run(func(p *env.Proc) {
		for it := 0; it < iters; it++ {
			if p.Rank == 0 {
				pattern(it, bufs[0].Data)
				p.Dirty(bufs[0])
			}
			p.HarnessBarrier()
			c.Bcast(p, bufs[p.Rank], 0, n, 0)
			// Verify inside the run so each iteration is checked.
			want := byte(0*7 + it*13 + 5)
			if bufs[p.Rank].Data[0] != want {
				t.Errorf("iter %d rank %d: first byte %d, want %d", it, p.Rank, bufs[p.Rank].Data[0], want)
			}
			p.HarnessBarrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if c.Ops != iters {
		t.Errorf("Ops = %d, want %d", c.Ops, iters)
	}
}

func TestBcastMixedSizesAndRoots(t *testing.T) {
	// Alternate CICO and XPMEM paths and two different roots in sequence:
	// the monotonic counters must stay consistent.
	top := topo.Epyc1P()
	w := world(t, top, 32)
	c := MustNew(w, DefaultConfig())
	sizes := []int{64, 32 << 10, 4, 100 << 10, 1024}
	roots := []int{0, 5, 0, 31, 7}
	bufs := make([]*mem.Buffer, 32)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, 100<<10)
	}
	if err := w.Run(func(p *env.Proc) {
		for i, n := range sizes {
			root := roots[i]
			if p.Rank == root {
				pattern(i, bufs[root].Data[:n])
				p.Dirty(bufs[root])
			}
			p.HarnessBarrier()
			c.Bcast(p, bufs[p.Rank], 0, n, root)
			p.HarnessBarrier()
			if !bytes.Equal(bufs[p.Rank].Data[:n], bufs[root].Data[:n]) {
				t.Errorf("op %d rank %d: wrong data", i, p.Rank)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// --- Allreduce ---

func runAllreduce(t *testing.T, top *topo.Topology, nranks, elems int, cfg Config) {
	t.Helper()
	n := elems * 8
	w := world(t, top, nranks)
	c := MustNew(w, cfg)
	sbufs := make([]*mem.Buffer, nranks)
	rbufs := make([]*mem.Buffer, nranks)
	want := make([]int64, elems)
	for r := 0; r < nranks; r++ {
		sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
		rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64(r*1000 + i)
			want[i] += vals[i]
		}
		mpi.EncodeInt64s(sbufs[r].Data, vals)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Allreduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, mpi.Sum)
	}); err != nil {
		t.Fatalf("elems=%d: %v", elems, err)
	}
	for r := 0; r < nranks; r++ {
		got := make([]int64, elems)
		mpi.DecodeInt64s(rbufs[r].Data, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("elems=%d rank=%d elem=%d: got %d, want %d", elems, r, i, got[i], want[i])
			}
		}
	}
}

func TestAllreduceCorrectnessSizes(t *testing.T) {
	top := topo.Epyc2P()
	for _, elems := range []int{1, 2, 8, 128, 129, 1024, 4096, 65536} {
		runAllreduce(t, top, 64, elems, DefaultConfig())
	}
}

func TestAllreduceAllPlatforms(t *testing.T) {
	for _, top := range topo.Platforms() {
		runAllreduce(t, top, top.NCores, 2048, DefaultConfig())
		runAllreduce(t, top, top.NCores, 4, DefaultConfig())
	}
}

func TestAllreduceFlat(t *testing.T) {
	runAllreduce(t, topo.Epyc1P(), 32, 4096, FlatConfig())
	runAllreduce(t, topo.Epyc1P(), 32, 2, FlatConfig())
}

func TestAllreduceOddRankCounts(t *testing.T) {
	top := topo.Epyc2P()
	for _, nr := range []int{2, 3, 7, 33} {
		runAllreduce(t, top, nr, 512, DefaultConfig())
		runAllreduce(t, top, nr, 1, DefaultConfig())
	}
}

func TestAllreduceOps(t *testing.T) {
	top := topo.Epyc1P()
	const nranks = 32
	const elems = 256
	n := elems * 8
	for _, op := range []mpi.Op{mpi.Sum, mpi.Min, mpi.Max, mpi.Prod} {
		w := world(t, top, nranks)
		c := MustNew(w, DefaultConfig())
		sbufs := make([]*mem.Buffer, nranks)
		rbufs := make([]*mem.Buffer, nranks)
		ref := make([]int64, elems)
		for r := 0; r < nranks; r++ {
			sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
			rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64((r+2)%5 + i%3 + 1) // small positives: Prod stays bounded
			}
			mpi.EncodeInt64s(sbufs[r].Data, vals)
			for i := range vals {
				if r == 0 {
					ref[i] = vals[i]
				} else {
					switch op {
					case mpi.Sum:
						ref[i] += vals[i]
					case mpi.Prod:
						ref[i] *= vals[i]
					case mpi.Min:
						if vals[i] < ref[i] {
							ref[i] = vals[i]
						}
					case mpi.Max:
						if vals[i] > ref[i] {
							ref[i] = vals[i]
						}
					}
				}
			}
		}
		if err := w.Run(func(p *env.Proc) {
			c.Allreduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, op)
		}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		got := make([]int64, elems)
		mpi.DecodeInt64s(rbufs[7].Data, got)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s elem %d: got %d, want %d", op, i, got[i], ref[i])
			}
		}
	}
}

func TestAllreduceFloat64(t *testing.T) {
	top := topo.Epyc1P()
	const nranks = 8
	const elems = 64
	n := elems * 8
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	sbufs := make([]*mem.Buffer, nranks)
	rbufs := make([]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
		rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(r) + float64(i)/16
		}
		mpi.EncodeFloat64s(sbufs[r].Data, vals)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Allreduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Float64, mpi.Sum)
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, elems)
	mpi.DecodeFloat64s(rbufs[3].Data, got)
	for i := range got {
		want := float64(nranks*(nranks-1))/2 + float64(nranks)*float64(i)/16
		if diff := got[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("elem %d: got %v, want %v", i, got[i], want)
		}
	}
}

func TestReduceToRoot(t *testing.T) {
	top := topo.Epyc2P()
	const nranks = 64
	const elems = 1024
	n := elems * 8
	for _, root := range []int{0, 10, 63} {
		w := world(t, top, nranks)
		c := MustNew(w, DefaultConfig())
		sbufs := make([]*mem.Buffer, nranks)
		rbufs := make([]*mem.Buffer, nranks)
		want := make([]int64, elems)
		for r := 0; r < nranks; r++ {
			sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
			rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64(r + i)
				want[i] += vals[i]
			}
			mpi.EncodeInt64s(sbufs[r].Data, vals)
		}
		if err := w.Run(func(p *env.Proc) {
			c.Reduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, mpi.Sum, root)
		}); err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
		got := make([]int64, elems)
		mpi.DecodeInt64s(rbufs[root].Data, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("root=%d elem=%d: got %d, want %d", root, i, got[i], want[i])
			}
		}
	}
}

func TestReduceSmall(t *testing.T) {
	top := topo.Epyc1P()
	const nranks = 32
	n := 8
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	sbufs := make([]*mem.Buffer, nranks)
	rbufs := make([]*mem.Buffer, nranks)
	var want int64
	for r := 0; r < nranks; r++ {
		sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
		rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
		mpi.EncodeInt64s(sbufs[r].Data, []int64{int64(r * r)})
		want += int64(r * r)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Reduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, mpi.Sum, 3)
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 1)
	mpi.DecodeInt64s(rbufs[3].Data, got)
	if got[0] != want {
		t.Errorf("got %d, want %d", got[0], want)
	}
}

func TestBarrier(t *testing.T) {
	top := topo.Epyc2P()
	w := world(t, top, 64)
	c := MustNew(w, DefaultConfig())
	released := make([]sim.Time, 64)
	arrive := make([]sim.Time, 64)
	if err := w.Run(func(p *env.Proc) {
		p.Compute(sim.Duration(p.Rank%7) * sim.Microsecond)
		arrive[p.Rank] = p.Now()
		c.Barrier(p)
		released[p.Rank] = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	var latest sim.Time
	for _, a := range arrive {
		if a > latest {
			latest = a
		}
	}
	for r, rel := range released {
		if rel < latest {
			t.Errorf("rank %d released at %v before last arrival %v", r, rel, latest)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	top := topo.Epyc1P()
	w := world(t, top, 32)
	c := MustNew(w, DefaultConfig())
	counts := make([]int, 32)
	if err := w.Run(func(p *env.Proc) {
		for i := 0; i < 4; i++ {
			p.Compute(sim.Duration(p.Rank) * 10 * sim.Nanosecond)
			c.Barrier(p)
			counts[p.Rank]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r, k := range counts {
		if k != 4 {
			t.Errorf("rank %d: %d barriers", r, k)
		}
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Bcast, Allreduce, Barrier, Reduce in sequence share counters safely.
	top := topo.Epyc1P()
	const nranks = 32
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	n := 2048
	bufs := make([]*mem.Buffer, nranks)
	sbufs := make([]*mem.Buffer, nranks)
	rbufs := make([]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n)
		sbufs[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, n)
		rbufs[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, n)
		vals := make([]int64, n/8)
		for i := range vals {
			vals[i] = int64(r)
		}
		mpi.EncodeInt64s(sbufs[r].Data, vals)
	}
	pattern(1, bufs[0].Data)
	if err := w.Run(func(p *env.Proc) {
		c.Bcast(p, bufs[p.Rank], 0, n, 0)
		c.Allreduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, mpi.Sum)
		c.Barrier(p)
		c.Reduce(p, sbufs[p.Rank], rbufs[p.Rank], n, mpi.Int64, mpi.Sum, 0)
		c.Bcast(p, bufs[p.Rank], 0, 64, 0)
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 1)
	mpi.DecodeInt64s(rbufs[0].Data, got)
	if got[0] != int64(nranks*(nranks-1))/2 {
		t.Errorf("reduce result %d", got[0])
	}
}

func TestConfigValidation(t *testing.T) {
	top := topo.Epyc1P()
	w := world(t, top, 8)
	bad := DefaultConfig()
	bad.ChunkBytes = []int{0}
	if _, err := New(w, bad); err == nil {
		t.Error("zero chunk accepted")
	}
	bad2 := DefaultConfig()
	bad2.CICOThreshold = -1
	if _, err := New(w, bad2); err == nil {
		t.Error("negative threshold accepted")
	}
	// A CICO buffer must hold two threshold-sized slots; 0 sizes it so.
	for _, b := range []int{1024, 1536} {
		small := DefaultConfig()
		small.CICOThreshold, small.CICOBytes = 1024, b
		if _, err := New(w, small); err == nil {
			t.Errorf("CICO buffer of %d bytes accepted for a 1024-byte threshold", b)
		}
	}
	for _, b := range []int{0, 2048} {
		ok := DefaultConfig()
		ok.CICOThreshold, ok.CICOBytes = 1024, b
		c, err := New(w, ok)
		if err != nil {
			t.Errorf("CICO buffer of %d bytes rejected: %v", b, err)
		} else if c.Cfg.CICOBytes != 2048 {
			t.Errorf("CICO buffer of %d bytes sized to %d, want 2048", b, c.Cfg.CICOBytes)
		}
	}
}

func TestRegCacheHitRatioHigh(t *testing.T) {
	// Repeated operations on the same buffers should hit the registration
	// cache nearly always (the paper reports >99% for its applications).
	top := topo.Epyc1P()
	const nranks = 32
	w := world(t, top, nranks)
	c := MustNew(w, DefaultConfig())
	const n = 64 << 10
	bufs := make([]*mem.Buffer, nranks)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n)
	}
	if err := w.Run(func(p *env.Proc) {
		for i := 0; i < 50; i++ {
			c.Bcast(p, bufs[p.Rank], 0, n, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Cache(5).Stats()
	if st.HitRatio() < 0.9 {
		t.Errorf("hit ratio %.3f too low: %+v", st.HitRatio(), st)
	}
}

// TestTreeBeatsFlatLargeBcast checks the headline behaviour: on a large
// message, the numa+socket hierarchy beats the flat tree (Fig. 8).
func TestTreeBeatsFlatLargeBcast(t *testing.T) {
	top := topo.Epyc2P()
	const n = 1 << 20
	elapsed := func(cfg Config) sim.Duration {
		w := world(t, top, 64)
		c := MustNew(w, cfg)
		bufs := make([]*mem.Buffer, 64)
		for r := range bufs {
			bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n)
		}
		var worst sim.Duration
		if err := w.Run(func(p *env.Proc) {
			p.HarnessBarrier()
			start := p.Now()
			c.Bcast(p, bufs[p.Rank], 0, n, 0)
			if d := p.Now() - start; d > worst {
				worst = d
			}
		}); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	flat := elapsed(FlatConfig())
	tree := elapsed(DefaultConfig())
	if tree >= flat {
		t.Errorf("tree (%v) should beat flat (%v) at 1 MiB / 64 ranks", tree, flat)
	}
}

// TestOnPullEdges checks the Table II property: exactly N-1 pull edges per
// op, matching the hierarchy structure.
func TestOnPullEdges(t *testing.T) {
	top := topo.Epyc2P()
	w := world(t, top, 64)
	c := MustNew(w, DefaultConfig())
	type edge struct{ from, to int }
	var edges []edge
	c.OnPull = func(from, to, bytes int) { edges = append(edges, edge{from, to}) }
	bufs := make([]*mem.Buffer, 64)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, 64<<10)
	}
	if err := w.Run(func(p *env.Proc) {
		c.Bcast(p, bufs[p.Rank], 0, 64<<10, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if len(edges) != 63 {
		t.Fatalf("pull edges = %d, want 63", len(edges))
	}
	var interSocket, interNUMA, intraNUMA int
	for _, e := range edges {
		switch w.Map.RankDistance(top, e.from, e.to) {
		case topo.CrossSocket:
			interSocket++
		case topo.CrossNUMA:
			interNUMA++
		default:
			intraNUMA++
		}
	}
	// Paper Table II, XHC-tree row: 1 / 6 / 56.
	if interSocket != 1 || interNUMA != 6 || intraNUMA != 56 {
		t.Errorf("edge distances = %d/%d/%d, want 1/6/56", interSocket, interNUMA, intraNUMA)
	}
}
