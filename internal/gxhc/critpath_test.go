package gxhc

import (
	"fmt"
	"testing"

	"xhc/internal/obs"
)

// TestCritBlameSumWallClock is the gxhc half of the blame-sum gate. The
// op umbrella ends at the last phase mark (wallClock.finish), so the
// marks partition every op exactly and the per-edge blame sums to the
// critical-lane latency tick for tick, as it does in virtual time. The
// allreduce loop covers the reducer data path on two shapes: GroupSize 3
// puts two reducers in the top group (each pulls the result), GroupSize 4
// leaves one (the sole-reducer shortcut, which marks no result wait or
// copy).
func TestCritBlameSumWallClock(t *testing.T) {
	const n, iters, payload = 8, 20, 4096
	for _, gs := range []int{3, 4} {
		t.Run(fmt.Sprintf("gs%d", gs), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GroupSize = gs // two hierarchy levels
			c, err := New(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry(false)
			wo := reg.NewWorld("gxhc", n, obs.WallTicksPerUS, obs.WallClock())
			wo.Rec.SetQuiesceDumps(true) // a GC pause mid-run may look like a straggler
			c.AttachRecorder(wo.Rec)

			bufs := make([][]byte, n)
			src := make([][]float64, n)
			dst := make([][]float64, n)
			for r := range bufs {
				bufs[r] = make([]byte, payload)
				src[r] = make([]float64, payload/8)
				dst[r] = make([]float64, payload/8)
			}
			runAll(n, func(rank int) {
				for it := 0; it < iters; it++ {
					c.Bcast(rank, bufs[rank], 0)
				}
				for it := 0; it < iters; it++ {
					c.AllreduceFloat64(rank, dst[rank], src[rank])
				}
			})
			wo.Rec.FlushDetector()

			blame, total, ops := wo.Rec.CritTicks()
			if ops < iters {
				t.Fatalf("crit ops = %d, want >= %d (too many steps dropped)", ops, iters)
			}
			if total <= 0 {
				t.Fatal("no critical-lane latency accumulated")
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
}
