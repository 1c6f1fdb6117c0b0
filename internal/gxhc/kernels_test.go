package gxhc

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the IEEE edge cases whose handling distinguishes fold
// implementations: NaN propagation, infinities, and the -0/+0 order.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, 1.5, -2.25,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// fillCase populates acc/src for one property-test round. Three flavors:
// exactly-reducible small integers (what internal/verify feeds the
// differential grids — sums stay exact in any association), uniform
// random finite values, and random values salted with IEEE specials.
func fillCase(rng *rand.Rand, flavor int, acc, src []float64) {
	for i := range acc {
		switch flavor {
		case 0:
			acc[i] = float64(rng.Intn(201) - 100)
			src[i] = float64(rng.Intn(201) - 100)
		case 1:
			acc[i] = rng.NormFloat64() * 1e6
			src[i] = rng.NormFloat64() * 1e6
		default:
			if rng.Intn(3) == 0 {
				acc[i] = specials[rng.Intn(len(specials))]
			} else {
				acc[i] = rng.NormFloat64()
			}
			if rng.Intn(3) == 0 {
				src[i] = specials[rng.Intn(len(specials))]
			} else {
				src[i] = rng.NormFloat64()
			}
		}
	}
}

// TestKernelsBitIdentical property-checks that the 4-way unrolled reduce
// kernels produce bit-identical results to the naive one-element-at-a-time
// loop for every length 0..257, every op, across exactly-reducible
// integers, random finite values, and IEEE specials (NaN, +/-Inf, signed
// zeros). The out-of-place kernels (out = a op b) must equal copy(out, a)
// followed by the naive fold of b, including when out aliases a.
func TestKernelsBitIdentical(t *testing.T) {
	type kernel struct {
		op    ReduceOp
		fast  func(acc, src []float64)
		to    func(out, a, b []float64)
		naive func(acc, src []float64)
	}
	kernels := []kernel{
		{OpSum, vecAdd, vecAddTo, vecAddNaive},
		{OpMin, vecMin, vecMinTo, vecMinNaive},
		{OpMax, vecMax, vecMaxTo, vecMaxNaive},
	}
	same := func(got, want []float64) int {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 257; n++ {
		for flavor := 0; flavor < 3; flavor++ {
			acc := make([]float64, n)
			src := make([]float64, n+rng.Intn(3)) // src may be longer than acc
			fillCase(rng, flavor, acc, src[:n])
			for i := n; i < len(src); i++ {
				src[i] = rng.NormFloat64()
			}
			for _, k := range kernels {
				gotAcc := append([]float64(nil), acc...)
				wantAcc := append([]float64(nil), acc...)
				k.fast(gotAcc, src)
				k.naive(wantAcc, src[:n])
				for i := range wantAcc {
					if math.Float64bits(gotAcc[i]) != math.Float64bits(wantAcc[i]) {
						t.Fatalf("op=%v n=%d flavor=%d elem %d: fast %x (%v) != naive %x (%v)",
							k.op, n, flavor, i,
							math.Float64bits(gotAcc[i]), gotAcc[i],
							math.Float64bits(wantAcc[i]), wantAcc[i])
					}
				}
				// vecReduce must dispatch to the same kernel.
				gotDisp := append([]float64(nil), acc...)
				vecReduce(k.op, gotDisp, src)
				if i := same(gotDisp, gotAcc); i >= 0 {
					t.Fatalf("op=%v n=%d: vecReduce dispatch mismatch at %d", k.op, n, i)
				}

				// Out of place: out = acc op src over a junk-filled out, with
				// src (the b operand) possibly longer than out.
				out := make([]float64, n)
				for i := range out {
					out[i] = math.NaN()
				}
				k.to(out, acc, src)
				if i := same(out, wantAcc); i >= 0 {
					t.Fatalf("op=%v n=%d flavor=%d elem %d: out-of-place %x (%v) != naive %x (%v)",
						k.op, n, flavor, i, math.Float64bits(out[i]), out[i],
						math.Float64bits(wantAcc[i]), wantAcc[i])
				}
				alias := append([]float64(nil), acc...)
				vecReduceTo(k.op, alias, alias, src)
				if i := same(alias, wantAcc); i >= 0 {
					t.Fatalf("op=%v n=%d: vecReduceTo with out aliasing a mismatch at %d", k.op, n, i)
				}
			}
		}
	}
}

// TestReduceOpCollectives runs the op-parameterized collectives end to end
// and checks them against a sequential fold with identical association
// order is not required for min/max (associative and commutative even over
// floats, NaN aside) and for sum the inputs are exactly-reducible ints.
func TestReduceOpCollectives(t *testing.T) {
	const n = 9
	const elems = 130 // exercises unrolled body + tail
	for _, op := range []ReduceOp{OpSum, OpMin, OpMax} {
		c := MustNew(n, Config{GroupSize: 3})
		rng := rand.New(rand.NewSource(7 + int64(op)))
		src := make([][]float64, n)
		dst := make([][]float64, n)
		want := make([]float64, elems)
		for r := range src {
			src[r] = make([]float64, elems)
			dst[r] = make([]float64, elems)
			for i := range src[r] {
				src[r][i] = float64(rng.Intn(201) - 100)
			}
		}
		for i := range want {
			want[i] = src[0][i]
			for r := 1; r < n; r++ {
				switch op {
				case OpSum:
					want[i] += src[r][i]
				case OpMin:
					want[i] = math.Min(want[i], src[r][i])
				case OpMax:
					want[i] = math.Max(want[i], src[r][i])
				}
			}
		}
		runAll(n, func(rank int) {
			c.AllreduceFloat64Op(rank, dst[rank], src[rank], op)
		})
		for r := range dst {
			for i := range dst[r] {
				if dst[r][i] != want[i] {
					t.Fatalf("allreduce op=%v rank=%d elem=%d: got %v want %v", op, r, i, dst[r][i], want[i])
				}
			}
		}
		// Rooted variant into root 2's dst only.
		for r := range dst {
			for i := range dst[r] {
				dst[r][i] = math.NaN()
			}
		}
		runAll(n, func(rank int) {
			c.ReduceFloat64Op(rank, dst[rank], src[rank], 2, op)
		})
		for i := range dst[2] {
			if dst[2][i] != want[i] {
				t.Fatalf("reduce op=%v elem=%d: got %v want %v", op, i, dst[2][i], want[i])
			}
		}
	}
}
