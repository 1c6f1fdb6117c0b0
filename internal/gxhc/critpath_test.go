package gxhc

import (
	"fmt"
	"testing"

	"xhc/internal/obs"
)

// TestCritBlameSumWallClock is the gxhc half of the blame-sum gate, run
// over every collective gxhc offers. The op clock ends each op at its last
// phase mark (obs.OpClock.Finish), so the marks partition every op
// exactly: each op's flight record has phase durations summing to
// End-Start, and the per-edge blame sums to the critical-lane latency tick
// for tick, as in virtual time. Each collective runs on two shapes:
// GroupSize 3 puts two reducers in the top group (each pulls the allreduce
// result), GroupSize 4 leaves one (the sole-reducer shortcut, which marks
// no result wait or copy).
func TestCritBlameSumWallClock(t *testing.T) {
	const n, iters = 8, 20
	const chunk = 4096
	type bufs struct {
		b, in  [][]byte
		f, dst [][]float64
		root   []byte // a scatter root's N blocks
	}
	cases := []struct {
		name string
		size int // payload bytes (per-rank block for allgather and scatter)
		op   func(c *Comm, rank int, b *bufs)
	}{
		{"bcast-cico", 512, func(c *Comm, rank int, b *bufs) { c.Bcast(rank, b.b[rank], 0) }},
		{"bcast-pipelined", 4 * chunk, func(c *Comm, rank int, b *bufs) { c.Bcast(rank, b.b[rank], 0) }},
		{"allreduce", 4096, func(c *Comm, rank int, b *bufs) { c.AllreduceFloat64(rank, b.dst[rank], b.f[rank]) }},
		{"reduce", 4096, func(c *Comm, rank int, b *bufs) { c.ReduceFloat64(rank, b.dst[rank], b.f[rank], 0) }},
		{"barrier", 0, func(c *Comm, rank int, b *bufs) { c.Barrier(rank) }},
		{"allgather", 256, func(c *Comm, rank int, b *bufs) { c.Allgather(rank, b.in[rank], b.b[rank]) }},
		{"scatter-cico", 64, func(c *Comm, rank int, b *bufs) { c.Scatter(rank, b.root, b.in[rank], 0) }},
		{"scatter", 2048, func(c *Comm, rank int, b *bufs) { c.Scatter(rank, b.root, b.in[rank], 0) }},
		{"ibcast-fused", 256, func(c *Comm, rank int, b *bufs) {
			var rs [4]*Request
			for i := range rs {
				rs[i] = c.Ibcast(rank, b.b[rank], 0)
			}
			Waitall(rs[:]...)
		}},
	}
	for _, gs := range []int{3, 4} {
		t.Run(fmt.Sprintf("gs%d", gs), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					c, err := New(n, Config{GroupSize: gs, ChunkBytes: chunk})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					reg := obs.NewRegistry(false)
					wo := reg.NewWorld("gxhc", n, obs.WallTicksPerUS, obs.WallClock())
					wo.Rec.SetQuiesceDumps(true) // a GC pause mid-run may look like a straggler
					c.AttachRecorder(wo.Rec)

					blen := tc.size // bcast buffer, or allgather's N-block out
					if tc.name == "allgather" {
						blen *= n
					}
					b := &bufs{root: make([]byte, tc.size*n)}
					for r := 0; r < n; r++ {
						b.b = append(b.b, make([]byte, blen))
						b.in = append(b.in, make([]byte, tc.size))
						b.f = append(b.f, make([]float64, tc.size/8))
						b.dst = append(b.dst, make([]float64, tc.size/8))
					}
					runAll(n, func(rank int) {
						for it := 0; it < iters; it++ {
							tc.op(c, rank, b)
						}
					})
					wo.Rec.FlushDetector()

					recs := 0
					for lane := 0; lane < n; lane++ {
						for _, rec := range wo.Rec.Flight().LaneRecords(lane) {
							if rec.Kind != obs.RecOp {
								continue
							}
							recs++
							var sum int64
							for _, d := range rec.Phase {
								sum += d
							}
							if sum != rec.Dur() {
								t.Fatalf("lane %d %s seq %d: phases sum to %d ticks, End-Start is %d", lane, rec.Op, rec.Seq, sum, rec.Dur())
							}
						}
					}
					if recs == 0 {
						t.Fatal("no op flight records")
					}
					blame, total, ops := wo.Rec.CritTicks()
					// Every case closes one critical-path step per
					// iteration (a fused Ibcast window counts once). A
					// step is dropped when a late lane reports after the
					// next one opened, so half may go under scheduling
					// noise, no more.
					if ops < iters/2 {
						t.Fatalf("crit ops = %d, want >= %d (too many steps dropped)", ops, iters/2)
					}
					if total <= 0 {
						t.Fatal("crit total is zero: no critical-lane latency accumulated")
					}
					var intra int64
					for e := obs.EdgeExpose; e <= obs.EdgeAck; e++ {
						intra += blame[e]
					}
					if intra != total {
						t.Fatalf("intra-node blame %d ticks != critical-lane total %d: the phase marks must partition every op", intra, total)
					}
				})
			}
		})
	}
}
