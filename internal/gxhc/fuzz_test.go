package gxhc

import (
	"testing"
)

// FuzzGoCommAllreduce drives the goroutine-backed allreduce with fuzzed
// communicator shapes and vector lengths, comparing against an exact
// reference sum. Contributions are small integers, so every reduction
// order yields bit-identical float64 results and the comparison can be
// exact. The seed corpus pins the awkward shapes: zero-length vectors,
// lengths that are not a multiple of the chunk, a chunk smaller than one
// element, singleton and flat communicators.
func FuzzGoCommAllreduce(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint32(64<<10), uint16(1000), uint64(1))
	f.Add(uint8(8), uint8(4), uint32(4096), uint16(0), uint64(2))   // zero-length vector
	f.Add(uint8(7), uint8(3), uint32(4096), uint16(777), uint64(3)) // 6216 B, not a chunk multiple
	f.Add(uint8(1), uint8(8), uint32(1024), uint16(5), uint64(4))   // singleton communicator
	f.Add(uint8(16), uint8(2), uint32(8), uint16(33), uint64(5))    // one element per chunk
	f.Add(uint8(12), uint8(1), uint32(3), uint16(9), uint64(6))     // chunk smaller than an element
	f.Add(uint8(9), uint8(20), uint32(0), uint16(100), uint64(7))   // flat (group >= n), default chunk

	f.Fuzz(func(t *testing.T, nSeed, gsSeed uint8, chunk uint32, countSeed uint16, seed uint64) {
		n := 1 + int(nSeed)%16
		count := int(countSeed) % 4096
		cfg := Config{
			GroupSize:  int(gsSeed) % (n + 2),
			ChunkBytes: int(chunk % (256 << 10)),
		}
		c, err := New(n, cfg)
		if err != nil {
			t.Fatalf("New(%d, %+v): %v", n, cfg, err)
		}

		src := make([][]float64, n)
		dst := make([][]float64, n)
		want := make([]float64, count)
		state := seed
		for r := 0; r < n; r++ {
			src[r] = make([]float64, count)
			dst[r] = make([]float64, count)
			for i := range src[r] {
				state = state*6364136223846793005 + 1442695040888963407
				v := float64(int(state>>33)%201 - 100)
				src[r][i] = v
				want[i] += v
			}
		}

		runAll(n, func(rank int) {
			c.AllreduceFloat64(rank, dst[rank], src[rank])
		})

		for r := 0; r < n; r++ {
			for i, got := range dst[r] {
				if got != want[i] {
					t.Fatalf("n=%d cfg=%+v count=%d: rank %d elem %d = %v, want %v",
						n, cfg, count, r, i, got, want[i])
				}
			}
		}
	})
}

// FuzzGoCommReduce is the rooted sibling of FuzzGoCommAllreduce: fuzzed
// communicator shapes, vector lengths and roots, exact small-integer sums
// checked at the root only, with non-root dst buffers asserted untouched
// (the scratch-accumulator path must never write through a user buffer).
func FuzzGoCommReduce(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint32(64<<10), uint16(1000), uint8(0), uint64(1))
	f.Add(uint8(8), uint8(4), uint32(4096), uint16(0), uint8(3), uint64(2))   // zero-length vector
	f.Add(uint8(7), uint8(3), uint32(4096), uint16(777), uint8(6), uint64(3)) // non-zero root, odd length
	f.Add(uint8(1), uint8(8), uint32(1024), uint16(5), uint8(0), uint64(4))   // singleton communicator
	f.Add(uint8(16), uint8(2), uint32(8), uint16(33), uint8(15), uint64(5))   // root = last rank
	f.Add(uint8(12), uint8(1), uint32(3), uint16(9), uint8(5), uint64(6))     // chunk smaller than an element
	f.Add(uint8(9), uint8(20), uint32(0), uint16(100), uint8(4), uint64(7))   // flat (group >= n)

	f.Fuzz(func(t *testing.T, nSeed, gsSeed uint8, chunk uint32, countSeed uint16, rootSeed uint8, seed uint64) {
		n := 1 + int(nSeed)%16
		count := int(countSeed) % 4096
		root := int(rootSeed) % n
		cfg := Config{
			GroupSize:  int(gsSeed) % (n + 2),
			ChunkBytes: int(chunk % (256 << 10)),
		}
		c, err := New(n, cfg)
		if err != nil {
			t.Fatalf("New(%d, %+v): %v", n, cfg, err)
		}

		src := make([][]float64, n)
		dst := make([][]float64, n)
		want := make([]float64, count)
		state := seed
		for r := 0; r < n; r++ {
			src[r] = make([]float64, count)
			dst[r] = make([]float64, count)
			for i := range src[r] {
				state = state*6364136223846793005 + 1442695040888963407
				v := float64(int(state>>33)%201 - 100)
				src[r][i] = v
				want[i] += v
				dst[r][i] = 12345 // sentinel for the non-root checks
			}
		}

		runAll(n, func(rank int) {
			c.ReduceFloat64(rank, dst[rank], src[rank], root)
		})

		for i, got := range dst[root] {
			if got != want[i] {
				t.Fatalf("n=%d cfg=%+v count=%d root=%d: elem %d = %v, want %v",
					n, cfg, count, root, i, got, want[i])
			}
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			for i, got := range dst[r] {
				if got != 12345 {
					t.Fatalf("n=%d cfg=%+v count=%d root=%d: non-root rank %d dst written at %d (%v)",
						n, cfg, count, root, r, i, got)
				}
			}
		}
	})
}

// FuzzGoCommIallreduceOverlap drives the non-blocking request layer with
// fuzzed communicator shapes and overlap windows: every rank keeps 2-4
// Iallreduce requests in flight and consumes them through a fuzzed
// interleaving of Test polls (of a random outstanding request — completion
// consumption is legal in any order) and blocking Waits, over several
// back-to-back rounds so request pooling and recycling are exercised.
// Contributions are small integers, so every window's sum is exact.
func FuzzGoCommIallreduceOverlap(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint16(100), uint8(2), uint64(1))
	f.Add(uint8(8), uint8(4), uint16(0), uint8(0), uint64(2))   // zero-length vectors
	f.Add(uint8(1), uint8(8), uint16(5), uint8(3), uint64(3))   // singleton communicator
	f.Add(uint8(9), uint8(20), uint16(7), uint8(1), uint64(4))  // flat (group >= n)
	f.Add(uint8(16), uint8(2), uint16(1), uint8(2), uint64(5))  // one element, deep tree
	f.Add(uint8(5), uint8(3), uint16(333), uint8(0), uint64(6)) // odd shape
	f.Add(uint8(12), uint8(3), uint16(64), uint8(3), uint64(7))

	f.Fuzz(func(t *testing.T, nSeed, gsSeed uint8, countSeed uint16, kSeed uint8, seed uint64) {
		n := 1 + int(nSeed)%16
		count := int(countSeed) % 2048
		k := 2 + int(kSeed)%3 // in-flight window per rank
		const rounds = 2
		cfg := Config{GroupSize: int(gsSeed) % (n + 2)}
		c, err := New(n, cfg)
		if err != nil {
			t.Fatalf("New(%d, %+v): %v", n, cfg, err)
		}

		// Distinct buffers per (rank, slot); want[slot] is the exact sum.
		src := make([][][]float64, n)
		dst := make([][][]float64, n)
		want := make([][]float64, k)
		state := seed
		for slot := 0; slot < k; slot++ {
			want[slot] = make([]float64, count)
		}
		for r := 0; r < n; r++ {
			src[r] = make([][]float64, k)
			dst[r] = make([][]float64, k)
			for slot := 0; slot < k; slot++ {
				src[r][slot] = make([]float64, count)
				dst[r][slot] = make([]float64, count)
				for i := range src[r][slot] {
					state = state*6364136223846793005 + 1442695040888963407
					v := float64(int(state>>33)%201 - 100)
					src[r][slot][i] = v
					want[slot][i] += v
				}
			}
		}

		for round := 0; round < rounds; round++ {
			runAll(n, func(rank int) {
				rs := make([]*Request, 0, k)
				for slot := 0; slot < k; slot++ {
					rs = append(rs, c.Iallreduce(rank, dst[rank][slot], src[rank][slot], OpSum))
				}
				// Consume the window through a per-rank fuzzed mix of Test
				// polls and Waits, in fuzzed order across the outstanding
				// requests; the bounded poll budget keeps a lost completion
				// from spinning forever (the trailing Wait would hang and the
				// test binary's own deadline converts that into a failure).
				lcg := seed ^ uint64(rank)<<32 ^ uint64(round)<<16
				outstanding := k
				for polls := 0; outstanding > 0 && polls < 64; polls++ {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					pick := int(lcg>>33) % k
					if rs[pick] == nil {
						continue
					}
					lcg = lcg*6364136223846793005 + 1442695040888963407
					if lcg>>63 == 0 {
						if rs[pick].Test() {
							rs[pick] = nil
							outstanding--
						}
					} else {
						rs[pick].Wait()
						rs[pick] = nil
						outstanding--
					}
				}
				for _, r := range rs {
					if r != nil {
						r.Wait()
					}
				}
			})
			for r := 0; r < n; r++ {
				for slot := 0; slot < k; slot++ {
					for i, got := range dst[r][slot] {
						if got != want[slot][i] {
							t.Fatalf("n=%d cfg=%+v count=%d k=%d round=%d: rank %d slot %d elem %d = %v, want %v",
								n, cfg, count, k, round, r, slot, i, got, want[slot][i])
						}
					}
				}
			}
		}
	})
}

// FuzzGoCommAllgather drives the goroutine-backed allgather with fuzzed
// communicator shapes and block lengths over several back-to-back
// operations, so the exit-barrier recycling discipline is exercised along
// with the block placement. The seed corpus pins zero-length blocks,
// singleton and flat communicators, and single-byte blocks.
func FuzzGoCommAllgather(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint16(100), uint8(2), uint64(1))
	f.Add(uint8(8), uint8(4), uint16(0), uint8(3), uint64(2))  // zero-length blocks
	f.Add(uint8(1), uint8(8), uint16(5), uint8(1), uint64(3))  // singleton communicator
	f.Add(uint8(9), uint8(20), uint16(7), uint8(2), uint64(4)) // flat (group >= n)
	f.Add(uint8(16), uint8(2), uint16(1), uint8(4), uint64(5)) // single-byte blocks
	f.Add(uint8(5), uint8(3), uint16(333), uint8(1), uint64(6))

	f.Fuzz(func(t *testing.T, nSeed, gsSeed uint8, blockSeed uint16, opsSeed uint8, seed uint64) {
		n := 1 + int(nSeed)%16
		blockLen := int(blockSeed) % 2048
		ops := 1 + int(opsSeed)%4
		cfg := Config{GroupSize: int(gsSeed) % (n + 2)}
		c, err := New(n, cfg)
		if err != nil {
			t.Fatalf("New(%d, %+v): %v", n, cfg, err)
		}

		in := make([][]byte, n)
		out := make([][]byte, n)
		for r := 0; r < n; r++ {
			in[r] = make([]byte, blockLen)
			out[r] = make([]byte, blockLen*n)
		}
		state := seed
		for op := 0; op < ops; op++ {
			want := make([]byte, blockLen*n)
			for r := 0; r < n; r++ {
				for i := range in[r] {
					state = state*6364136223846793005 + 1442695040888963407
					in[r][i] = byte(state >> 56)
					want[r*blockLen+i] = in[r][i]
				}
				for i := range out[r] {
					out[r][i] = 0xee // junk: every byte must be overwritten
				}
			}
			runAll(n, func(rank int) {
				c.Allgather(rank, in[rank], out[rank])
			})
			for r := 0; r < n; r++ {
				for i := range out[r] {
					if out[r][i] != want[i] {
						t.Fatalf("n=%d cfg=%+v block=%d op=%d: rank %d byte %d = %#x, want %#x",
							n, cfg, blockLen, op, r, i, out[r][i], want[i])
					}
				}
			}
		}
	})
}

// FuzzGoCommBcast drives the shared broadcast protocol on real memory with
// fuzzed shapes: three back-to-back broadcasts from mixed roots, sizes
// drawn across the CICO threshold (1 KiB) and the chunk boundaries,
// GroupSize 0-4 and small chunks. Every rank must end each op with the
// root's bytes.
func FuzzGoCommBcast(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(2), uint16(0), uint8(0), uint64(1))    // zero bytes
	f.Add(uint8(8), uint8(4), uint8(2), uint16(1), uint8(3), uint64(2))    // one byte
	f.Add(uint8(7), uint8(3), uint8(4), uint16(1024), uint8(6), uint64(3)) // largest CICO size
	f.Add(uint8(9), uint8(2), uint8(4), uint16(1025), uint8(4), uint64(4)) // smallest pipelined size
	f.Add(uint8(16), uint8(4), uint8(5), uint16(5000), uint8(15), uint64(5))
	f.Add(uint8(1), uint8(0), uint8(0), uint16(7), uint8(0), uint64(6)) // singleton communicator

	f.Fuzz(func(t *testing.T, nSeed, gsSeed, chunkSeed uint8, sizeSeed uint16, rootSeed uint8, seed uint64) {
		n := 1 + int(nSeed)%16
		cfg := Config{GroupSize: int(gsSeed) % 5, ChunkBytes: 16 << (chunkSeed % 8)}
		c, err := New(n, cfg)
		if err != nil {
			t.Fatalf("New(%d, %+v): %v", n, cfg, err)
		}
		size := int(sizeSeed) % 8192
		sizes := []int{size, (size + 1025) % 8192, size % 1030}
		roots := make([]int, len(sizes))
		bufs := make([][][]byte, len(sizes)) // [op][rank]
		state := seed
		for op, sz := range sizes {
			roots[op] = (int(rootSeed) + op*5) % n
			bufs[op] = make([][]byte, n)
			for r := range bufs[op] {
				bufs[op][r] = make([]byte, sz)
				for i := range bufs[op][r] {
					state = state*6364136223846793005 + 1442695040888963407
					bufs[op][r][i] = byte(state >> 56)
				}
			}
		}
		want := make([][]byte, len(sizes))
		for op := range sizes {
			want[op] = append([]byte(nil), bufs[op][roots[op]]...)
		}

		runAll(n, func(rank int) {
			for op := range sizes {
				c.Bcast(rank, bufs[op][rank], roots[op])
			}
		})

		for op := range sizes {
			for r := 0; r < n; r++ {
				for i, b := range bufs[op][r] {
					if b != want[op][i] {
						t.Fatalf("n=%d cfg=%+v op %d (root %d, %d B): rank %d byte %d = %d, want %d",
							n, cfg, op, roots[op], sizes[op], r, i, b, want[op][i])
					}
				}
			}
		}
	})
}
