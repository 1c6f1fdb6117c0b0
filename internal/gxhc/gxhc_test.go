package gxhc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runAll spawns n goroutines executing body concurrently.
func runAll(n int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
}

func TestBcastDelivers(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		c := MustNew(n, DefaultConfig())
		bufs := make([][]byte, n)
		for r := range bufs {
			bufs[r] = make([]byte, 3000)
		}
		for i := range bufs[0] {
			bufs[0][i] = byte(i * 7)
		}
		runAll(n, func(rank int) {
			c.Bcast(rank, bufs[rank], 0)
		})
		for r := range bufs {
			for i := range bufs[r] {
				if bufs[r][i] != byte(i*7) {
					t.Fatalf("n=%d rank=%d byte %d wrong", n, r, i)
				}
			}
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	const n = 12
	c := MustNew(n, Config{GroupSize: 4, ChunkBytes: 256})
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, 1024)
	}
	for i := range bufs[5] {
		bufs[5][i] = byte(i ^ 0x5a)
	}
	runAll(n, func(rank int) {
		c.Bcast(rank, bufs[rank], 5)
	})
	for r := range bufs {
		for i := range bufs[r] {
			if bufs[r][i] != byte(i^0x5a) {
				t.Fatalf("rank %d wrong at %d", r, i)
			}
		}
	}
}

func TestBcastRepeatedAndChunked(t *testing.T) {
	const n = 9
	c := MustNew(n, Config{GroupSize: 3, ChunkBytes: 128})
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, 4096)
	}
	for it := 0; it < 5; it++ {
		for i := range bufs[0] {
			bufs[0][i] = byte(i + it*31)
		}
		runAll(n, func(rank int) {
			c.Bcast(rank, bufs[rank], 0)
		})
		for r := range bufs {
			if bufs[r][100] != byte(100+it*31) {
				t.Fatalf("iter %d rank %d stale data", it, r)
			}
		}
	}
}

func TestAllreduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 8, 17} {
		for _, elems := range []int{1, 10, 1000} {
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
				}
			}
			runAll(n, func(rank int) {
				c.AllreduceFloat64(rank, dst[rank], src[rank])
			})
			for r := range dst {
				for i := range dst[r] {
					if dst[r][i] != want[i] {
						t.Fatalf("n=%d elems=%d rank=%d elem=%d: got %v want %v",
							n, elems, r, i, dst[r][i], want[i])
					}
				}
			}
		}
	}
}

func TestAllreduceRepeated(t *testing.T) {
	const n = 8
	const elems = 64
	c := MustNew(n, DefaultConfig())
	src := make([][]float64, n)
	dst := make([][]float64, n)
	for r := range src {
		src[r] = make([]float64, elems)
		dst[r] = make([]float64, elems)
	}
	for it := 0; it < 4; it++ {
		for r := range src {
			for i := range src[r] {
				src[r][i] = float64(it + r + i)
			}
		}
		runAll(n, func(rank int) {
			c.AllreduceFloat64(rank, dst[rank], src[rank])
		})
		want := 0.0
		for r := 0; r < n; r++ {
			want += float64(it + r)
		}
		for r := range dst {
			if dst[r][0] != want {
				t.Fatalf("iter %d rank %d: got %v want %v", it, r, dst[r][0], want)
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	const n = 10
	c := MustNew(n, Config{GroupSize: 3})
	var phase [n]int
	for it := 0; it < 3; it++ {
		runAll(n, func(rank int) {
			phase[rank]++
			c.Barrier(rank)
			// After the barrier, everyone must be in the same phase.
			for r := 0; r < n; r++ {
				if phase[r] != it+1 {
					t.Errorf("rank %d saw phase[%d]=%d before barrier release", rank, r, phase[r])
				}
			}
			c.Barrier(rank)
		})
	}
}

func TestMixedOps(t *testing.T) {
	const n = 8
	c := MustNew(n, Config{GroupSize: 4, ChunkBytes: 512})
	bufs := make([][]byte, n)
	src := make([][]float64, n)
	dst := make([][]float64, n)
	for r := 0; r < n; r++ {
		bufs[r] = make([]byte, 2048)
		src[r] = make([]float64, 32)
		dst[r] = make([]float64, 32)
		for i := range src[r] {
			src[r][i] = 1
		}
	}
	for i := range bufs[0] {
		bufs[0][i] = byte(i)
	}
	runAll(n, func(rank int) {
		c.Bcast(rank, bufs[rank], 0)
		c.AllreduceFloat64(rank, dst[rank], src[rank])
		c.Barrier(rank)
		c.Bcast(rank, bufs[rank], 0)
	})
	for r := 0; r < n; r++ {
		if dst[r][5] != float64(n) {
			t.Errorf("rank %d allreduce = %v", r, dst[r][5])
		}
		if bufs[r][9] != 9 {
			t.Errorf("rank %d bcast corrupted", r)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultConfig()); err == nil {
		t.Error("zero participants accepted")
	}
	if c := MustNew(5, Config{}); c.N() != 5 {
		t.Error("N() wrong")
	}
}

func TestFlatConfig(t *testing.T) {
	const n = 6
	c := MustNew(n, Config{GroupSize: 0}) // flat
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, 100)
	}
	bufs[0][0] = 42
	runAll(n, func(rank int) {
		c.Bcast(rank, bufs[rank], 0)
	})
	for r := range bufs {
		if bufs[r][0] != 42 {
			t.Fatalf("rank %d missing data", r)
		}
	}
	_ = fmt.Sprint(c)
}

// TestOversubscribedProgress is the regression test for waiter starvation:
// with more waiting participants than OS threads, a pure busy-wait loop can
// livelock because the ranks holding the next counter update never get
// scheduled. 64 ranks on GOMAXPROCS=2 must promptly finish all six
// collectives on the parking waiter, which takes oversubscribed waiters
// off the scheduler entirely once their spin budget runs out.
func TestOversubscribedProgress(t *testing.T) {
	t.Run("park", func(t *testing.T) {
		old := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)

		const n = 64
		const elems = 256
		const blockLen = 512
		c := MustNew(n, Config{GroupSize: 8, ChunkBytes: 1024})
		bufs := make([][]byte, n)
		src := make([][]float64, n)
		dst := make([][]float64, n)
		agOut := make([][]byte, n)
		scOut := make([][]byte, n)
		for r := 0; r < n; r++ {
			bufs[r] = make([]byte, 4096)
			src[r] = make([]float64, elems)
			dst[r] = make([]float64, elems)
			agOut[r] = make([]byte, blockLen*n)
			scOut[r] = make([]byte, blockLen)
			for i := range src[r] {
				src[r][i] = 1
			}
		}
		for i := range bufs[0] {
			bufs[0][i] = byte(i * 3)
		}
		scIn := make([]byte, blockLen*n)
		for i := range scIn {
			scIn[i] = byte(i * 5)
		}

		done := make(chan struct{})
		go func() {
			runAll(n, func(rank int) {
				c.Bcast(rank, bufs[rank], 0)
				c.AllreduceFloat64(rank, dst[rank], src[rank])
				c.Barrier(rank)
				c.ReduceFloat64(rank, dst[rank], src[rank], 3)
				c.Allgather(rank, bufs[rank][:blockLen], agOut[rank])
				var in []byte
				if rank == 0 {
					in = scIn
				}
				c.Scatter(rank, in, scOut[rank], 0)
			})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("collectives stalled with 64 ranks on GOMAXPROCS=2 (waiter starvation)")
		}
		for r := 0; r < n; r++ {
			if bufs[r][100] != byte(300%256) {
				t.Fatalf("rank %d bcast data wrong", r)
			}
			if dst[3][0] != float64(n) {
				t.Fatalf("rooted reduce = %v, want %v", dst[3][0], float64(n))
			}
			if agOut[r][blockLen*7+100] != bufs[7][100] {
				t.Fatalf("rank %d allgather block 7 wrong", r)
			}
			if scOut[r][11] != scIn[blockLen*r+11] {
				t.Fatalf("rank %d scatter block wrong", r)
			}
		}
	})
}

// TestTraceRecordsPhases checks the wall-clock tracer: spans are recorded
// per rank, each operation gets a collective umbrella span, and the
// attribution spans never exceed it.
func TestTraceRecordsPhases(t *testing.T) {
	const n = 8
	c := MustNew(n, Config{GroupSize: 4, ChunkBytes: 512})
	tr := c.EnableTrace()
	if tr == nil || c.Tracer() != tr {
		t.Fatal("EnableTrace did not install a tracer")
	}
	if again := c.EnableTrace(); again != tr {
		t.Fatal("EnableTrace not idempotent")
	}

	bufs := make([][]byte, n)
	src := make([][]float64, n)
	dst := make([][]float64, n)
	for r := 0; r < n; r++ {
		bufs[r] = make([]byte, 2048)
		src[r] = make([]float64, 32)
		dst[r] = make([]float64, 32)
	}
	runAll(n, func(rank int) {
		c.Bcast(rank, bufs[rank], 0)
		c.AllreduceFloat64(rank, dst[rank], src[rank])
		c.Barrier(rank)
	})

	for rank := 0; rank < n; rank++ {
		spans := tr.LaneSpans(rank)
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", rank)
		}
		ops := map[string]bool{}
		for _, s := range spans {
			if s.Phase == 0 { // obs.PhaseCollective
				ops[s.Op] = true
				covered := tr.CoveredTotal(rank, int64(s.Seq))
				if covered <= 0 || covered > s.Dur() {
					t.Errorf("rank %d %s seq %d: covered %d ns outside collective %d ns",
						rank, s.Op, s.Seq, covered, s.Dur())
				}
			}
		}
		for _, op := range []string{"bcast", "allreduce", "barrier"} {
			if !ops[op] {
				t.Errorf("rank %d missing collective span for %s", rank, op)
			}
		}
	}
}
