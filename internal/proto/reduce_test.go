package proto_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"xhc/internal/hier"
	"xhc/internal/proto"
	"xhc/internal/topo"
)

// fold is the test reduction over little-endian uint64 elements:
// acc = acc*31 + x. It is neither commutative nor associative, so the
// result pins the fold order.
func fold(acc, x []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		a := binary.LittleEndian.Uint64(acc[i:])
		binary.LittleEndian.PutUint64(acc[i:], a*31+binary.LittleEndian.Uint64(x[i:]))
	}
}

// oracle folds the ranks' inputs over h the way the protocol must: in
// every group the leader's contribution (its input at the leaves, its led
// group's result above) seeds the result, then the members fold in slot
// order.
func oracle(h *hier.Hierarchy, in [][]byte) []byte {
	var result func(l int, g *hier.Group) []byte
	contrib := func(l, rank int) []byte {
		if l == 0 {
			return in[rank]
		}
		g, _ := h.GroupOf(l-1, rank)
		return result(l-1, g)
	}
	result = func(l int, g *hier.Group) []byte {
		acc := append([]byte(nil), contrib(l, g.Leader)...)
		for _, m := range g.Members {
			if m != g.Leader {
				fold(acc, contrib(l, m))
			}
		}
		return acc
	}
	top := h.NLevels() - 1
	return result(top, &h.GroupsAt(top)[0])
}

// redCall is one op of a test sequence: a rooted Reduce (at root modulo
// the rank count), or an Allreduce when root is -1.
type redCall struct{ root, n int }

// TestAllreduceAndReduce runs back-to-back allreduces and rooted reduces
// on hierarchies of one to three levels, with groups of zero, one and
// three reducers, and checks every result against the fold oracle. The
// sizes sit on both sides of the CICO limit (1 KiB), include n == 0, run
// three CICO ops in a row so both slots are reused, and include vectors
// of two and three elements, where the least slice (16 bytes on the CICO
// path here) leaves reducers idle. Each rank refills its input right
// after every return, so a rank that returned while a peer still read its
// contribution shows up as wrong data (and under -race as a race). Both
// settings of the sole-reducer rule run.
func TestAllreduceAndReduce(t *testing.T) {
	cases := []struct {
		name string
		tc   topo.Config
		n    int
		sens hier.Sensitivity
	}{
		// One level: a pair, whose one reducer takes the sole-reducer
		// rule (the root then stalls on its whole slice), and a flat
		// group of four, three reducers.
		{"pair", topo.Config{Sockets: 1, NUMAPerSocket: 1, CoresPerNUMA: 2}, 2, nil},
		{"flat", topo.Config{Sockets: 1, NUMAPerSocket: 1, CoresPerNUMA: 4}, 4, nil},
		// Two levels: NUMA groups {0..3} (three reducers) and {4} (none);
		// the top group {0, 4} has one.
		{"numa", topo.Config{Sockets: 1, NUMAPerSocket: 2, CoresPerNUMA: 4}, 5,
			hier.Sensitivity{hier.DomainNUMA}},
		// Three levels: NUMA pairs and a singleton, socket pairs, a top pair.
		{"numa+socket", topo.Config{Sockets: 2, NUMAPerSocket: 2, CoresPerNUMA: 2}, 7,
			hier.Sensitivity{hier.DomainNUMA, hier.DomainSocket}},
	}
	calls := []redCall{
		{-1, 24}, {-1, 0}, {3, 16}, {-1, 1024}, {1, 1024}, {-1, 8},
		{-1, 1032}, {2, 4000}, {-1, 4000}, {0, 40}, {-1, 3000},
	}
	for _, tc := range cases {
		for _, sole := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sole=%v", tc.name, sole), func(t *testing.T) {
				w := newWorldOn(t, tc.tc, tc.n, tc.sens, 16)
				w.red.CICOMinSlice = 16
				w.red.SoleWrites = sole
				runReductions(t, w, calls)
			})
		}
	}
}

func runReductions(t *testing.T, w *world, calls []redCall) {
	t.Helper()
	input := func(op, rank, i int) byte { return byte(op*37 + rank*11 + i*7 + 1) }
	got := make([][][]byte, len(calls)) // [op][rank]
	for k, c := range calls {
		got[k] = make([][]byte, w.n)
		for r := range got[k] {
			got[k][r] = make([]byte, c.n)
		}
	}
	cums := make([][][]uint64, w.n) // per rank, per root
	for r := range cums {
		for range w.plans {
			cums[r] = append(cums[r], make([]uint64, len(w.cum[r])))
		}
	}
	w.run(func(r int, m *rankMem) {
		sbuf := make([]byte, 4000)
		scratch := make([]byte, 4000)
		for k, c := range calls {
			root, bcast := max(c.root, 0)%w.n, c.root < 0
			in := sbuf[:c.n]
			for i := range in {
				in[i] = input(k, r, i)
			}
			p := &w.plans[root][r]
			acc := got[k][r]
			if !bcast && r != root {
				acc = scratch[:c.n]
			}
			w.seq[r]++
			proto.Allreduce(m, p, w.seq[r], cums[r][root], in, acc, got[k][r], c.n, 8, bcast)
			for i := range in {
				in[i] = 0xee
			}
		}
	})
	for k, c := range calls {
		root := max(c.root, 0) % w.n
		in := make([][]byte, w.n)
		for r := range in {
			in[r] = make([]byte, c.n)
			for i := range in[r] {
				in[r][i] = input(k, r, i)
			}
		}
		want := oracle(w.hs[root], in)
		for r := 0; r < w.n; r++ {
			if c.root >= 0 && r != root {
				continue
			}
			if string(got[k][r]) != string(want) {
				t.Fatalf("op %d (root %d, n %d): rank %d got the wrong result", k, root, c.n, r)
			}
		}
	}
}

// TestSlice pins the partition's edge cases: a vector too small for
// every reducer, no reducers busy past the least slice, and the remainder
// going to the first reducers.
func TestSlice(t *testing.T) {
	for _, tc := range []struct {
		n, es, min, k int
		want          [][2]int
	}{
		{24, 8, 16, 3, [][2]int{{0, 16}, {16, 24}, {24, 24}}},
		{8, 8, 2048, 3, [][2]int{{0, 8}, {8, 8}, {8, 8}}},
		{40, 8, 1, 3, [][2]int{{0, 16}, {16, 32}, {32, 40}}},
		{4096, 4, 2048, 1, [][2]int{{0, 4096}}},
	} {
		for i, w := range tc.want {
			if lo, hi := proto.Slice(tc.n, tc.es, tc.min, tc.k, i); lo != w[0] || hi != w[1] {
				t.Errorf("Slice(%d, %d, %d, %d, %d) = [%d, %d), want [%d, %d)",
					tc.n, tc.es, tc.min, tc.k, i, lo, hi, w[0], w[1])
			}
		}
	}
}
