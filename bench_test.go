// Benchmarks regenerating the paper's tables and figures, one family per
// Benchmark function (see DESIGN.md's per-experiment index), plus the
// ablation benches for XHC's design choices.
//
// Each benchmark drives the deterministic simulator for b.N measured
// operations and reports the simulated mean latency as "sim-us/op"
// (wall-clock ns/op measures the simulator itself, which is also useful).
//
// Run with: go test -bench=. -benchmem
package xhc_test

import (
	"fmt"
	"testing"

	"xhc"
	"xhc/internal/mpi"
	"xhc/internal/osu"
)

// reportBcast runs a bcast microbenchmark with b.N measured iterations and
// reports the simulated latency.
func reportBcast(b *testing.B, bench xhc.MicroBench, size int) {
	b.Helper()
	bench.Warmup = 2
	bench.Iters = b.N
	bench.Dirty = true
	rs, err := bench.Bcast([]int{size})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rs[0].AvgLat, "sim-us/op")
}

func reportAllreduce(b *testing.B, bench xhc.MicroBench, size int) {
	b.Helper()
	bench.Warmup = 2
	bench.Iters = b.N
	bench.Dirty = true
	rs, err := bench.Allreduce([]int{size})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rs[0].AvgLat, "sim-us/op")
}

// BenchmarkFig01aDomains: one-way p2p latency per topological distance
// class (Fig. 1a).
func BenchmarkFig01aDomains(b *testing.B) {
	top := xhc.Epyc2P()
	cases := []struct {
		name string
		peer int
	}{
		{"cache-local", 1},
		{"intra-numa", 4},
		{"cross-numa", 8},
		{"cross-socket", 32},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rs, err := osu.Latency(top, 0, c.peer, mpi.DefaultConfig(), []int{1 << 20}, 2, b.N, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rs[0].AvgLat, "sim-us/op")
		})
	}
}

// BenchmarkFig01bCongestion: the flat-vs-hierarchical concurrent memory
// copy experiment (Fig. 1b) at full occupancy.
func BenchmarkFig01bCongestion(b *testing.B) {
	for _, comp := range []string{"xhc-flat", "xhc-tree"} {
		b.Run(comp, func(b *testing.B) {
			reportBcast(b, xhc.MicroBench{Topo: xhc.Epyc1P(), Component: comp}, 1<<20)
		})
	}
}

// BenchmarkFig03CopyMechs: broadcast through tuned under each SMSC copy
// mechanism (Fig. 3b).
func BenchmarkFig03CopyMechs(b *testing.B) {
	for _, mech := range []mpi.Mechanism{mpi.XPMEM, mpi.KNEM, mpi.CMA, mpi.CICO} {
		mech := mech
		b.Run(string(mech), func(b *testing.B) {
			bench := xhc.MicroBench{
				Topo: xhc.Epyc2P(), NRanks: 64,
				Custom: tunedWithMech(mech, true),
			}
			reportBcast(b, bench, 256<<10)
		})
	}
	b.Run("xpmem-nocache", func(b *testing.B) {
		bench := xhc.MicroBench{Topo: xhc.Epyc2P(), NRanks: 64, Custom: tunedWithMech(mpi.XPMEM, false)}
		reportBcast(b, bench, 256<<10)
	})
}

func tunedWithMech(mech mpi.Mechanism, regCache bool) func(w *xhc.World) (xhc.Component, error) {
	return func(w *xhc.World) (xhc.Component, error) {
		cfg := xhc.DefaultTunedConfig()
		cfg.P2P.Mechanism = mech
		cfg.P2P.RegCache = regCache
		return xhc.NewTuned(w, cfg), nil
	}
}

// BenchmarkFig04Atomics: 4-byte broadcast with single-writer flags
// (smhc-flat) vs atomic fetch-add flags (sm) at full ARM-N1 occupancy.
func BenchmarkFig04Atomics(b *testing.B) {
	for _, comp := range []string{"smhc-flat", "sm"} {
		b.Run(comp, func(b *testing.B) {
			reportBcast(b, xhc.MicroBench{Topo: xhc.ArmN1(), Component: comp}, 4)
		})
	}
}

// BenchmarkFig07CacheEffects: stock osu_bcast vs the buffer-dirtying _mb
// variant for the flat tree (Fig. 7).
func BenchmarkFig07CacheEffects(b *testing.B) {
	for _, dirty := range []bool{false, true} {
		name := "stock"
		if dirty {
			name = "mb"
		}
		dirty := dirty
		b.Run(name, func(b *testing.B) {
			bench := xhc.MicroBench{Topo: xhc.Epyc2P(), Component: "xhc-flat",
				Warmup: 2, Iters: b.N, Dirty: dirty}
			rs, err := bench.Bcast([]int{64 << 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rs[0].AvgLat, "sim-us/op")
		})
	}
}

// BenchmarkFig08Bcast: the headline broadcast comparison (Fig. 8), one
// sub-benchmark per platform and component, at 64 KiB.
func BenchmarkFig08Bcast(b *testing.B) {
	for _, top := range xhc.Platforms() {
		for _, comp := range []string{"xhc-tree", "xhc-flat", "tuned", "ucc"} {
			b.Run(fmt.Sprintf("%s/%s", top.Name, comp), func(b *testing.B) {
				reportBcast(b, xhc.MicroBench{Topo: top, Component: comp}, 64<<10)
			})
		}
	}
}

// BenchmarkFig09aLayouts: broadcast under map-core vs map-numa (Fig. 9a).
func BenchmarkFig09aLayouts(b *testing.B) {
	for _, pol := range []xhc.MapPolicy{xhc.MapCore, xhc.MapNUMA} {
		for _, comp := range []string{"tuned", "xhc-tree"} {
			b.Run(fmt.Sprintf("%s/%s", pol, comp), func(b *testing.B) {
				reportBcast(b, xhc.MicroBench{Topo: xhc.Epyc2P(), NRanks: 64,
					Component: comp, Policy: pol}, 1<<20)
			})
		}
	}
}

// BenchmarkFig09bRoot: broadcast with root 0 vs root 10 (Fig. 9b).
func BenchmarkFig09bRoot(b *testing.B) {
	for _, root := range []int{0, 10} {
		for _, comp := range []string{"tuned", "xhc-tree"} {
			b.Run(fmt.Sprintf("root%d/%s", root, comp), func(b *testing.B) {
				reportBcast(b, xhc.MicroBench{Topo: xhc.Epyc2P(), NRanks: 64,
					Component: comp, Root: root}, 1<<20)
			})
		}
	}
}

// BenchmarkFig10FlagPlacement: small-message broadcast under the flag
// cache-line placement schemes (Fig. 10).
func BenchmarkFig10FlagPlacement(b *testing.B) {
	schemes := []struct {
		name string
		flat bool
		sep  bool
	}{
		{"flat-shared", true, false},
		{"flat-separated", true, true},
		{"tree-shared", false, false},
		{"tree-separated", false, true},
	}
	for _, sc := range schemes {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			bench := xhc.MicroBench{Topo: xhc.Epyc1P(), Custom: flagSchemeBuilder(sc.flat, sc.sep)}
			reportBcast(b, bench, 4)
		})
	}
}

// BenchmarkFig11Allreduce: the headline allreduce comparison (Fig. 11).
func BenchmarkFig11Allreduce(b *testing.B) {
	for _, top := range xhc.Platforms() {
		for _, comp := range []string{"xhc-tree", "xhc-flat", "tuned", "ucc", "xbrc"} {
			b.Run(fmt.Sprintf("%s/%s", top.Name, comp), func(b *testing.B) {
				reportAllreduce(b, xhc.MicroBench{Topo: top, Component: comp}, 64<<10)
			})
		}
	}
}

// BenchmarkFig12PiSvM / Fig13MiniAMR / Fig14CNTK: the application models.
func BenchmarkFig12PiSvM(b *testing.B) {
	benchApp(b, func(comp string) (float64, error) {
		cfg := xhc.DefaultPiSvM(xhc.AppConfig{Topo: xhc.Epyc2P(), Component: comp})
		cfg.Iterations = 5 * b.N
		res, err := xhc.RunPiSvM(cfg)
		return float64(res.Total) / 1e6, err // ps -> us
	})
}

func BenchmarkFig13MiniAMR(b *testing.B) {
	benchApp(b, func(comp string) (float64, error) {
		cfg := xhc.ChallengingMiniAMR(xhc.AppConfig{Topo: xhc.Epyc2P(), Component: comp})
		cfg.Steps = 10 * b.N
		res, err := xhc.RunMiniAMR(cfg)
		return float64(res.Total) / 1e6, err
	})
}

func BenchmarkFig14CNTK(b *testing.B) {
	benchApp(b, func(comp string) (float64, error) {
		cfg := xhc.DefaultCNTK(xhc.AppConfig{Topo: xhc.Epyc2P(), Component: comp})
		cfg.Minibatches = b.N
		res, err := xhc.RunCNTK(cfg)
		return float64(res.Total) / 1e6, err
	})
}

func benchApp(b *testing.B, run func(comp string) (float64, error)) {
	b.Helper()
	for _, comp := range []string{"xhc-tree", "tuned", "ucc"} {
		comp := comp
		b.Run(comp, func(b *testing.B) {
			us, err := run(comp)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(us/float64(b.N), "sim-us/op")
		})
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationChunkSize: pipelining granule sweep for a 1 MiB
// hierarchical broadcast.
func BenchmarkAblationChunkSize(b *testing.B) {
	for chunk := 8 << 10; chunk <= 1<<20; chunk *= 4 {
		chunk := chunk
		b.Run(fmt.Sprintf("%dK", chunk>>10), func(b *testing.B) {
			bench := xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: chunkBuilder(chunk)}
			reportBcast(b, bench, 1<<20)
		})
	}
}

// BenchmarkAblationPipelineOff: chunk == message size disables cross-level
// overlap entirely.
func BenchmarkAblationPipelineOff(b *testing.B) {
	b.Run("pipelined-64K", func(b *testing.B) {
		reportBcast(b, xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: chunkBuilder(64 << 10)}, 1<<20)
	})
	b.Run("unpipelined", func(b *testing.B) {
		reportBcast(b, xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: chunkBuilder(1 << 20)}, 1<<20)
	})
}

// BenchmarkAblationCICOThreshold: where the copy-in-copy-out path stops
// paying off.
func BenchmarkAblationCICOThreshold(b *testing.B) {
	for _, thresh := range []int{0, 1 << 10, 16 << 10} {
		thresh := thresh
		for _, size := range []int{512, 4 << 10} {
			size := size
			b.Run(fmt.Sprintf("thresh%d/size%d", thresh, size), func(b *testing.B) {
				bench := xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: func(w *xhc.World) (xhc.Component, error) {
					cfg := xhc.DefaultConfig()
					cfg.CICOThreshold = thresh
					cfg.CICOBytes = max(cfg.CICOBytes, 2*thresh) // two slots
					return xhc.NewXHC(w, cfg)
				}}
				reportBcast(b, bench, size)
			})
		}
	}
}

// BenchmarkAblationRegCache: XHC with and without the registration cache.
func BenchmarkAblationRegCache(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "regcache-on"
		if !on {
			name = "regcache-off"
		}
		on := on
		b.Run(name, func(b *testing.B) {
			bench := xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: func(w *xhc.World) (xhc.Component, error) {
				cfg := xhc.DefaultConfig()
				cfg.RegCache = on
				return xhc.NewXHC(w, cfg)
			}}
			reportBcast(b, bench, 256<<10)
		})
	}
}

// BenchmarkAblationSensitivity: hierarchy depth sweep.
func BenchmarkAblationSensitivity(b *testing.B) {
	for _, sens := range []string{"flat", "numa", "socket", "numa+socket", "llc+numa+socket"} {
		sens := sens
		b.Run(sens, func(b *testing.B) {
			bench := xhc.MicroBench{Topo: xhc.Epyc2P(), Custom: func(w *xhc.World) (xhc.Component, error) {
				cfg := xhc.DefaultConfig()
				s, err := xhc.ParseSensitivity(sens)
				if err != nil {
					return nil, err
				}
				cfg.Sensitivity = s
				return xhc.NewXHC(w, cfg)
			}}
			reportBcast(b, bench, 256<<10)
		})
	}
}

// BenchmarkGoCommBcast measures the real goroutine-level library (wall
// clock is the actual metric here).
func BenchmarkGoCommBcast(b *testing.B) {
	const n = 16
	comm := xhc.MustNewGoComm(n, xhc.DefaultGoConfig())
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, 64<<10)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		for r := 0; r < n; r++ {
			go func(rank int) {
				comm.Bcast(rank, bufs[rank], 0)
				done <- struct{}{}
			}(r)
		}
		for r := 0; r < n; r++ {
			<-done
		}
	}
}

func chunkBuilder(chunk int) func(w *xhc.World) (xhc.Component, error) {
	return func(w *xhc.World) (xhc.Component, error) {
		cfg := xhc.DefaultConfig()
		cfg.ChunkBytes = []int{chunk}
		return xhc.NewXHC(w, cfg)
	}
}

func flagSchemeBuilder(flat, separated bool) func(w *xhc.World) (xhc.Component, error) {
	return func(w *xhc.World) (xhc.Component, error) {
		cfg := xhc.DefaultConfig()
		if flat {
			cfg = xhc.FlatConfig()
		}
		if separated {
			cfg.Flags = xhc.MultiSeparateLines
		} else {
			cfg.Flags = xhc.MultiSharedLine
		}
		return xhc.NewXHC(w, cfg)
	}
}
