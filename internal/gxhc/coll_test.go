package gxhc

import "testing"

func TestReduceSumsAtRoot(t *testing.T) {
	for _, n := range []int{1, 2, 8, 17} {
		for _, root := range []int{0, n - 1} {
			for _, elems := range []int{0, 1, 10, 1000} {
				c := MustNew(n, Config{GroupSize: 4})
				src := make([][]float64, n)
				dst := make([][]float64, n)
				want := make([]float64, elems)
				for r := range src {
					src[r] = make([]float64, elems)
					dst[r] = make([]float64, elems)
					for i := range src[r] {
						src[r][i] = float64(r*100 + i)
						want[i] += src[r][i]
						dst[r][i] = -1 // sentinel: only root's dst may change
					}
				}
				runAll(n, func(rank int) {
					c.ReduceFloat64(rank, dst[rank], src[rank], root)
				})
				for i := range want {
					if dst[root][i] != want[i] {
						t.Fatalf("n=%d root=%d elems=%d elem=%d: got %v want %v",
							n, root, elems, i, dst[root][i], want[i])
					}
				}
				for r := range dst {
					if r == root {
						continue
					}
					for i := range dst[r] {
						if dst[r][i] != -1 {
							t.Fatalf("n=%d root=%d: non-root rank %d dst written at %d", n, root, r, i)
						}
					}
				}
			}
		}
	}
}

func TestReduceRepeated(t *testing.T) {
	const n, elems = 9, 40
	c := MustNew(n, Config{GroupSize: 3})
	src := make([][]float64, n)
	dst := make([][]float64, n)
	for r := range src {
		src[r] = make([]float64, elems)
		dst[r] = make([]float64, elems)
	}
	for it := 0; it < 5; it++ {
		root := it % n
		want := make([]float64, elems)
		for r := range src {
			for i := range src[r] {
				src[r][i] = float64(r + i*it)
				want[i] += src[r][i]
			}
		}
		runAll(n, func(rank int) {
			c.ReduceFloat64(rank, dst[rank], src[rank], root)
		})
		for i := range want {
			if dst[root][i] != want[i] {
				t.Fatalf("iter %d root %d elem %d: got %v want %v", it, root, i, dst[root][i], want[i])
			}
		}
	}
}

func TestAllgatherConcatenates(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, blockLen := range []int{0, 1, 3, 500} {
			c := MustNew(n, Config{GroupSize: 4})
			in := make([][]byte, n)
			out := make([][]byte, n)
			for r := range in {
				in[r] = make([]byte, blockLen)
				out[r] = make([]byte, blockLen*n)
				for i := range in[r] {
					in[r][i] = byte(r*31 + i)
				}
			}
			runAll(n, func(rank int) {
				c.Allgather(rank, in[rank], out[rank])
			})
			for r := range out {
				for b := 0; b < n; b++ {
					for i := 0; i < blockLen; i++ {
						if out[r][b*blockLen+i] != byte(b*31+i) {
							t.Fatalf("n=%d block=%d rank=%d wrong at %d", n, blockLen, r, i)
						}
					}
				}
			}
		}
	}
}

func TestAllgatherRepeatedNoStaleBlocks(t *testing.T) {
	// The exit barrier must keep op k+1's exposure from racing op k's
	// reads: re-fill the same in buffers between iterations and demand
	// every iteration sees its own values.
	const n, blockLen = 8, 64
	c := MustNew(n, Config{GroupSize: 4})
	in := make([][]byte, n)
	out := make([][]byte, n)
	for r := range in {
		in[r] = make([]byte, blockLen)
		out[r] = make([]byte, blockLen*n)
	}
	for it := 0; it < 8; it++ {
		for r := range in {
			for i := range in[r] {
				in[r][i] = byte(r ^ i ^ it*13)
			}
		}
		runAll(n, func(rank int) {
			c.Allgather(rank, in[rank], out[rank])
		})
		for r := range out {
			for b := 0; b < n; b++ {
				if out[r][b*blockLen+5] != byte(b^5^it*13) {
					t.Fatalf("iter %d rank %d stale block %d", it, r, b)
				}
			}
		}
	}
}

func TestScatterDistributes(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, root := range []int{0, n / 2} {
			for _, blockLen := range []int{0, 1, 3, 500} {
				c := MustNew(n, Config{GroupSize: 4})
				in := make([]byte, blockLen*n)
				for i := range in {
					in[i] = byte(i * 11)
				}
				out := make([][]byte, n)
				for r := range out {
					out[r] = make([]byte, blockLen)
				}
				runAll(n, func(rank int) {
					var src []byte
					if rank == root {
						src = in
					}
					c.Scatter(rank, src, out[rank], root)
				})
				for r := range out {
					for i := range out[r] {
						if out[r][i] != byte((r*blockLen+i)*11) {
							t.Fatalf("n=%d root=%d block=%d rank=%d wrong at %d", n, root, blockLen, r, i)
						}
					}
				}
			}
		}
	}
}

func TestMixedNewCollectives(t *testing.T) {
	// Interleave the new collectives with the existing ones: the shared
	// opSeq/cum bookkeeping must stay consistent across kinds.
	const n, elems, blockLen = 12, 32, 16
	c := MustNew(n, Config{GroupSize: 4, ChunkBytes: 64})
	bufs := make([][]byte, n)
	src := make([][]float64, n)
	dst := make([][]float64, n)
	agIn := make([][]byte, n)
	agOut := make([][]byte, n)
	scOut := make([][]byte, n)
	scIn := make([]byte, blockLen*n)
	for r := 0; r < n; r++ {
		bufs[r] = make([]byte, 256)
		src[r] = make([]float64, elems)
		dst[r] = make([]float64, elems)
		agIn[r] = make([]byte, blockLen)
		agOut[r] = make([]byte, blockLen*n)
		scOut[r] = make([]byte, blockLen)
		for i := range src[r] {
			src[r][i] = float64(r + i)
		}
		for i := range agIn[r] {
			agIn[r][i] = byte(r*17 + i)
		}
	}
	for i := range bufs[0] {
		bufs[0][i] = byte(i * 3)
	}
	for i := range scIn {
		scIn[i] = byte(i * 7)
	}
	runAll(n, func(rank int) {
		c.Bcast(rank, bufs[rank], 0)
		c.Barrier(rank)
		c.ReduceFloat64(rank, dst[rank], src[rank], 3)
		c.Allgather(rank, agIn[rank], agOut[rank])
		var s []byte
		if rank == 2 {
			s = scIn
		}
		c.Scatter(rank, s, scOut[rank], 2)
		c.AllreduceFloat64(rank, dst[rank], src[rank])
	})
	for r := 0; r < n; r++ {
		if bufs[r][10] != byte(30) {
			t.Fatalf("rank %d bcast wrong", r)
		}
		for b := 0; b < n; b++ {
			if agOut[r][b*blockLen+1] != byte(b*17+1) {
				t.Fatalf("rank %d allgather block %d wrong", r, b)
			}
		}
		if scOut[r][0] != byte(r*blockLen*7) {
			t.Fatalf("rank %d scatter wrong", r)
		}
		var want float64
		for m := 0; m < n; m++ {
			want += float64(m + 4)
		}
		if dst[r][4] != want {
			t.Fatalf("rank %d allreduce got %v want %v", r, dst[r][4], want)
		}
	}
}

// TestScatterRepeatedCICO runs back-to-back small scatters (the CICO path:
// all N blocks fit one CICO slot) with fresh data and a moving root every
// op, so a block read from the wrong slot or before the root's copy-in
// shows as stale bytes. A large scatter in between moves the exposure
// path through the same top-group counters.
func TestScatterRepeatedCICO(t *testing.T) {
	const n, small, large = 9, 16, 4096
	c := MustNew(n, Config{GroupSize: 3})
	in := make([]byte, large*n)
	out := make([][]byte, n)
	for r := range out {
		out[r] = make([]byte, large)
	}
	for it := 0; it < 12; it++ {
		root := it % n
		blk := small
		if it%4 == 3 {
			blk = large
		}
		for i := range in[:blk*n] {
			in[i] = byte(i*5 + it*31)
		}
		runAll(n, func(rank int) {
			var src []byte
			if rank == root {
				src = in[:blk*n]
			}
			c.Scatter(rank, src, out[rank][:blk], root)
		})
		for r := range out {
			for i := 0; i < blk; i++ {
				if want := byte((r*blk+i)*5 + it*31); out[r][i] != want {
					t.Fatalf("op %d (block %d, root %d): rank %d byte %d = %d, want %d", it, blk, root, r, i, out[r][i], want)
				}
			}
		}
	}
}
