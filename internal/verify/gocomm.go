package verify

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xhc/internal/gxhc"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/sim"
)

// gxhcOp maps the case's MPI reduction to gxhc's float64 kernel set.
// Sum/min/max are covered (min/max fold with math.Min/math.Max, exactly
// mpi.ReduceBytes' semantics); prod and the integer datatypes are not
// implemented by the Go backend and gate the case off.
func gxhcOp(c Case) (gxhc.ReduceOp, bool) {
	if c.Dt != mpi.Float64 {
		return 0, false
	}
	switch c.Op {
	case mpi.Sum:
		return gxhc.OpSum, true
	case mpi.Min:
		return gxhc.OpMin, true
	case mpi.Max:
		return gxhc.OpMax, true
	}
	return 0, false
}

// runGoComm cross-checks the case on the real-concurrency Go backend.
// Broadcast, barrier, allgather and scatter run for every case; allreduce
// and reduce for the float64 reductions gxhc implements (sum, min, max).
// Real goroutine scheduling supplies the schedule variation here; when the
// schedule enables faults the root is made a straggler before every op.
// chaos seeds the StaleReady mutant for the self-test (which also forces
// the straggler, the condition under which the mutant's junk copy is
// certain).
//
// The parking waiter's output is compared byte-exactly against the pure
// deterministic reference, so a waiter bug (missed wakeup, premature
// release) surfaces as a replayable verify failure.
func runGoComm(c Case, s Schedule, chaos *proto.Chaos, reg *obs.Registry) error {
	if c.Kind == KindAllreduce || c.Kind == KindReduce {
		if _, ok := gxhcOp(c); !ok {
			return nil
		}
	}
	const be = "gxhc"
	gcfg := gxhc.Config{
		GroupSize:  2 + int(c.CfgSeed%3),
		ChunkBytes: c.Chunk,
		Chaos:      chaos,
	}
	comm, err := gxhc.New(c.Ranks, gcfg)
	if err != nil {
		return err
	}
	// Observe the communicator: a wall-clock world whose recorder gets one
	// flight record per (participant, collective) via AttachRecorder.
	var wo *obs.World
	if reg != nil {
		wo = reg.NewWorld(be, c.Ranks, obs.WallTicksPerUS, obs.WallClock())
		wo.Rec.Backend = be
		wo.Rec.SetReplayToken(ReplayToken(c.CfgSeed, s.SchedSeed))
		comm.AttachRecorder(wo.Rec)
	}
	ref := buildRef(c)
	var delay time.Duration
	if s.Faults || chaos != nil {
		delay = 200 * time.Microsecond
	}

	stamps := make([]atomic.Uint64, c.Ranks) // barrier arrival stamps
	errs := make([]error, c.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < c.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			straggle := func() {
				if rank == c.Root && delay > 0 {
					if wo != nil {
						wo.Rec.CountFault(obs.FaultGxhcStraggler)
					}
					time.Sleep(delay)
				}
			}
			switch c.Kind {
			case KindBcast:
				buf := make([]byte, c.Bytes)
				for op := 0; op < c.Ops; op++ {
					copy(buf, ref.fill[op][rank])
					straggle()
					comm.Bcast(rank, buf, c.Root)
					if errs[rank] == nil && c.Bytes > 0 && diffBytes(buf, ref.want[op]) >= 0 {
						got := append([]byte(nil), buf...)
						errs[rank] = dataError(be+" bcast", op, rank, got, ref.want[op])
					}
				}
			case KindBarrier:
				for op := 0; op < c.Ops; op++ {
					straggle()
					stamps[rank].Store(uint64(op + 1))
					comm.Barrier(rank)
					for rk := 0; rk < c.Ranks && errs[rank] == nil; rk++ {
						if got := stamps[rk].Load(); got < uint64(op+1) {
							errs[rank] = fmt.Errorf("%s barrier: op %d: rank %d left while rank %d's stamp is %d (want >= %d)",
								be, op, rank, rk, got, op+1)
						}
					}
				}
			case KindAllgather:
				in := make([]byte, c.Bytes)
				out := make([]byte, c.Bytes*c.Ranks)
				for op := 0; op < c.Ops; op++ {
					copy(in, ref.fill[op][rank])
					fillJunk(out, uint64(op))
					straggle()
					comm.Allgather(rank, in, out)
					if errs[rank] == nil && len(out) > 0 && diffBytes(out, ref.want[op]) >= 0 {
						got := append([]byte(nil), out...)
						errs[rank] = dataError(be+" allgather", op, rank, got, ref.want[op])
					}
				}
			case KindScatter:
				var in []byte
				if rank == c.Root {
					in = make([]byte, c.Bytes*c.Ranks)
				}
				out := make([]byte, c.Bytes)
				for op := 0; op < c.Ops; op++ {
					if rank == c.Root {
						copy(in, ref.fill[op][rank])
					}
					fillJunk(out, uint64(op))
					straggle()
					comm.Scatter(rank, in, out, c.Root)
					if errs[rank] == nil && c.Bytes > 0 {
						want := ref.want[op][rank*c.Bytes : (rank+1)*c.Bytes]
						if diffBytes(out, want) >= 0 {
							got := append([]byte(nil), out...)
							errs[rank] = dataError(be+" scatter", op, rank, got, want)
						}
					}
				}
			default: // allreduce / reduce, float64 sum/min/max
				rop, _ := gxhcOp(c)
				n := c.Bytes / 8
				src := make([]float64, n)
				dst := make([]float64, n)
				want := make([]float64, n)
				for op := 0; op < c.Ops; op++ {
					mpi.DecodeFloat64s(ref.fill[op][rank], src)
					mpi.DecodeFloat64s(ref.want[op], want)
					for i := range dst {
						dst[i] = math.NaN()
					}
					straggle()
					if c.Kind == KindReduce {
						comm.ReduceFloat64Op(rank, dst, src, c.Root, rop)
					} else {
						comm.AllreduceFloat64Op(rank, dst, src, rop)
					}
					if errs[rank] != nil {
						continue
					}
					if c.Kind == KindReduce && rank != c.Root {
						// Non-root dst must keep its NaN sentinels: gxhc's
						// rooted reduce accumulates in internal scratch.
						for i := range dst {
							if !math.IsNaN(dst[i]) {
								errs[rank] = fmt.Errorf("%s reduce: op %d: non-root rank %d dst written at elem %d", be, op, rank, i)
								break
							}
						}
						continue
					}
					for i := range want {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							got := make([]byte, c.Bytes)
							mpi.EncodeFloat64s(got, dst)
							errs[rank] = dataError(be+" "+c.Kind.String(), op, rank, got, ref.want[op])
							break
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if wo != nil {
		// No memory model or engine behind gxhc; fold only the recorder's
		// histograms and close out the detector.
		wo.Finish(mem.Stats{}, sim.EngineStats{})
	}
	for _, e := range errs {
		if e != nil {
			if wo != nil {
				wo.Rec.DumpNow("failure", e.Error())
			}
			return e
		}
	}
	return nil
}
