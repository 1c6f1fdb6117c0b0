package gxhc

import "math"

// ReduceOp selects the element-wise fold applied by the float64 reduction
// kernels. Sum matches the paper's allreduce benchmarks; Min/Max use
// math.Min/math.Max semantics (NaN propagates, -0 orders below +0) so
// results stay bit-identical to the simulator's mpi.ReduceBytes fold.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return "?"
}

// vecReduce folds src into acc element-wise over the first len(acc)
// elements (src must be at least as long; the slices must not overlap
// partially).
func vecReduce(op ReduceOp, acc, src []float64) {
	switch op {
	case OpSum:
		vecAdd(acc, src)
	case OpMin:
		vecMin(acc, src)
	case OpMax:
		vecMax(acc, src)
	}
}

// vecReduceTo writes out = a op b element-wise over the first len(out)
// elements (a and b must be at least as long). out may alias a or b
// exactly, never partially: each element is read before it is written.
// It is the fused seed-and-fold step of a reduction slice — out = a
// followed by vecReduce(op, out, b) in one pass, bit for bit.
func vecReduceTo(op ReduceOp, out, a, b []float64) {
	switch op {
	case OpSum:
		vecAddTo(out, a, b)
	case OpMin:
		vecMinTo(out, a, b)
	case OpMax:
		vecMaxTo(out, a, b)
	}
}

// The per-op kernels: pure Go, 4-way unrolled, with the slice headers
// hoisted so the compiler proves every index in range once per trip instead
// of once per element. `src = src[:len(acc)]` pins both lengths to the same
// bound; inside the unrolled body each access is dominated by the `i+3 <
// len(acc)` trip test, so the bounds checks vanish (verified with
// `go build -gcflags=-d=ssa/check_bce`).

func vecAdd(acc, src []float64) {
	src = src[:len(acc)]
	i := 0
	for ; i+3 < len(acc); i += 4 {
		acc[i] += src[i]
		acc[i+1] += src[i+1]
		acc[i+2] += src[i+2]
		acc[i+3] += src[i+3]
	}
	for ; i < len(acc); i++ {
		acc[i] += src[i]
	}
}

func vecMin(acc, src []float64) {
	src = src[:len(acc)]
	i := 0
	for ; i+3 < len(acc); i += 4 {
		acc[i] = math.Min(acc[i], src[i])
		acc[i+1] = math.Min(acc[i+1], src[i+1])
		acc[i+2] = math.Min(acc[i+2], src[i+2])
		acc[i+3] = math.Min(acc[i+3], src[i+3])
	}
	for ; i < len(acc); i++ {
		acc[i] = math.Min(acc[i], src[i])
	}
}

func vecMax(acc, src []float64) {
	src = src[:len(acc)]
	i := 0
	for ; i+3 < len(acc); i += 4 {
		acc[i] = math.Max(acc[i], src[i])
		acc[i+1] = math.Max(acc[i+1], src[i+1])
		acc[i+2] = math.Max(acc[i+2], src[i+2])
		acc[i+3] = math.Max(acc[i+3], src[i+3])
	}
	for ; i < len(acc); i++ {
		acc[i] = math.Max(acc[i], src[i])
	}
}

// The out-of-place kernels carry the same unrolling and bounds-check hints,
// with both inputs pinned to len(out).

func vecAddTo(out, a, b []float64) {
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	for ; i+3 < len(out); i += 4 {
		out[i] = a[i] + b[i]
		out[i+1] = a[i+1] + b[i+1]
		out[i+2] = a[i+2] + b[i+2]
		out[i+3] = a[i+3] + b[i+3]
	}
	for ; i < len(out); i++ {
		out[i] = a[i] + b[i]
	}
}

func vecMinTo(out, a, b []float64) {
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	for ; i+3 < len(out); i += 4 {
		out[i] = math.Min(a[i], b[i])
		out[i+1] = math.Min(a[i+1], b[i+1])
		out[i+2] = math.Min(a[i+2], b[i+2])
		out[i+3] = math.Min(a[i+3], b[i+3])
	}
	for ; i < len(out); i++ {
		out[i] = math.Min(a[i], b[i])
	}
}

func vecMaxTo(out, a, b []float64) {
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	for ; i+3 < len(out); i += 4 {
		out[i] = math.Max(a[i], b[i])
		out[i+1] = math.Max(a[i+1], b[i+1])
		out[i+2] = math.Max(a[i+2], b[i+2])
		out[i+3] = math.Max(a[i+3], b[i+3])
	}
	for ; i < len(out); i++ {
		out[i] = math.Max(a[i], b[i])
	}
}

// Naive one-element-at-a-time references: the oracle the optimized kernels
// must match bit for bit (kernels_test.go property-checks every length
// 0..257 including NaN, infinities and signed zeros), and the definition of
// record for the fold semantics.

func vecAddNaive(acc, src []float64) {
	for i := range acc {
		acc[i] += src[i]
	}
}

func vecMinNaive(acc, src []float64) {
	for i := range acc {
		acc[i] = math.Min(acc[i], src[i])
	}
}

func vecMaxNaive(acc, src []float64) {
	for i := range acc {
		acc[i] = math.Max(acc[i], src[i])
	}
}
