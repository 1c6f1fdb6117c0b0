package proto_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xhc/internal/hier"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/topo"
)

// group is the test backend's control block: spinning atomic counters and
// plain fields published by them, as in any real-memory backend.
type group struct {
	exp, ready, accExp atomic.Uint64
	acks               []atomic.Uint64 // per member slot
	red                []redSlot       // per member slot
	leader             int             // the leader's slot
	members            []int
	exposed, acc       []byte
	first              uint64
}

// redSlot is one member's reduction counters and exposed contribution.
type redSlot struct {
	exp, ready, done atomic.Uint64
	buf              []byte
}

// world holds the state every rank of one test communicator shares.
type world struct {
	n      int
	chunk  int
	red    proto.Reduction
	hs     []*hier.Hierarchy      // per root
	plans  [][]proto.Plan[*group] // [root][rank]
	groups [][][]*group           // [root][level][index]
	cico   [][]byte
	stage  [][]byte
	seq    []uint64   // per-rank op sequence (shared across roots)
	cum    [][]uint64 // per-rank ready mirrors
	mems   []rankMem
}

// rankMem implements proto.Mem on plain Go memory.
type rankMem struct {
	w    *world
	rank int
}

func (m *rankMem) flag(r *proto.Role[*group], f proto.Flag) *atomic.Uint64 {
	return slotFlag(r, f, r.Slot)
}

func slotFlag(r *proto.Role[*group], f proto.Flag, s int) *atomic.Uint64 {
	switch f {
	case proto.Exp:
		return &r.G.exp
	case proto.Ready:
		return &r.G.ready
	case proto.AccExp:
		return &r.G.accExp
	case proto.Ack:
		return &r.G.acks[s]
	case proto.RedExp:
		return &r.G.red[s].exp
	case proto.RedReady:
		return &r.G.red[s].ready
	}
	return &r.G.red[s].done
}

func spin(f *atomic.Uint64, v uint64) uint64 {
	for {
		if got := f.Load(); got >= v {
			return got
		}
		runtime.Gosched()
	}
}

func (m *rankMem) Set(r *proto.Role[*group], f proto.Flag, v uint64) { m.flag(r, f).Store(v) }
func (m *rankMem) WaitGE(r *proto.Role[*group], f proto.Flag, v uint64) uint64 {
	return spin(m.flag(r, f), v)
}
func (m *rankMem) WaitAll(r *proto.Role[*group], v uint64) {
	for s := range r.G.acks {
		if s != r.Slot {
			spin(&r.G.acks[s], v)
		}
	}
}
func (m *rankMem) Expose(r *proto.Role[*group], buf []byte, off int, first uint64) {
	r.G.exposed, r.G.first = buf[off:], first
}
func (m *rankMem) Attach(r *proto.Role[*group]) ([]byte, int, uint64) {
	return r.G.exposed, 0, r.G.first
}
func (m *rankMem) Release(*proto.Role[*group]) {}
func (m *rankMem) Copy(dst []byte, doff int, src []byte, soff, n int) {
	copy(dst[doff:doff+n], src[soff:soff+n])
}
func (m *rankMem) CICO(rank int) ([]byte, int) { return m.w.cico[rank], 1024 }
func (m *rankMem) CICOMax() int                { return 1024 }
func (m *rankMem) Chunk(int) int               { return m.w.chunk }
func (m *rankMem) FuseStage(n int) []byte {
	if len(m.w.stage[m.rank]) < n {
		m.w.stage[m.rank] = make([]byte, n)
	}
	return m.w.stage[m.rank]
}
func (m *rankMem) Mark(int, proto.Phase, int64)          {}
func (m *rankMem) MarkFrom(int, proto.Phase, int64, int) {}
func (m *rankMem) Pull(int, int)                         {}
func (m *rankMem) Chaos() *proto.Chaos                   { return &noChaos }

func (m *rankMem) Contribute(r *proto.Role[*group], buf []byte, acc bool) {
	if acc {
		r.G.acc = buf
	} else {
		r.G.red[r.Slot].buf = buf
	}
}
func (m *rankMem) AttachRed(r *proto.Role[*group], s int) []byte {
	if s == proto.Acc {
		return r.G.acc
	}
	return r.G.red[s].buf
}

// Fold seeds the chunk with the leader's contribution, then folds the
// members in slot order with fold, which is not commutative: any other
// order shows in the data.
func (m *rankMem) Fold(r *proto.Role[*group], off, n int, cico bool) {
	g := r.G
	chunk := func(s int) []byte {
		if cico {
			return m.w.cico[g.members[s]][off : off+n]
		}
		return g.red[s].buf[off : off+n]
	}
	acc := chunk(g.leader)
	if !cico {
		acc = g.acc[off : off+n]
		copy(acc, chunk(g.leader))
	}
	for s := range g.members {
		if s != g.leader {
			fold(acc, chunk(s))
		}
	}
}
func (m *rankMem) Load(r *proto.Role[*group], f proto.Flag, s int) uint64 {
	return slotFlag(r, f, s).Load()
}
func (m *rankMem) WaitSlot(r *proto.Role[*group], f proto.Flag, s int, v uint64) {
	spin(slotFlag(r, f, s), v)
}
func (m *rankMem) WaitSlots(r *proto.Role[*group], f proto.Flag, want []uint64) {
	for s, v := range want {
		spin(slotFlag(r, f, s), v)
	}
}

// Stall waits for the need as a real-memory backend does: a need the
// waiting rank itself must write would hang the test.
func (m *rankMem) Stall(r *proto.Role[*group], f proto.Flag, s int, v uint64) {
	spin(slotFlag(r, f, s), v)
}
func (m *rankMem) Reduction() proto.Reduction { return m.w.red }

var noChaos proto.Chaos

// newWorld builds an 8-rank, two-level communicator (two NUMA groups of
// four) with plans for every root.
func newWorld(t *testing.T, chunk int) *world {
	t.Helper()
	return newWorldOn(t, topo.Config{Sockets: 1, NUMAPerSocket: 2, CoresPerNUMA: 4}, 8,
		hier.Sensitivity{hier.DomainNUMA}, chunk)
}

// newWorldOn builds an n-rank communicator on the topology tc (ranks
// placed core by core) with plans for every root, CICO slots of 1 KiB and
// the reduction tuned as the simulated backend's defaults.
func newWorldOn(t *testing.T, tc topo.Config, n int, sens hier.Sensitivity, chunk int) *world {
	t.Helper()
	tc.Name, tc.Arch = "t", "go"
	tp, err := topo.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := tp.Map(topo.MapCore, n)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{n: n, chunk: chunk, cico: make([][]byte, n), stage: make([][]byte, n),
		seq: make([]uint64, n), cum: make([][]uint64, n), mems: make([]rankMem, n),
		red: proto.Reduction{MinSlice: 2048, CICOMinSlice: 128}}
	levels := 0
	for root := 0; root < n; root++ {
		h, err := hier.Build(tp, mp, sens, root)
		if err != nil {
			t.Fatal(err)
		}
		levels = max(levels, h.NLevels())
		gs := make([][]*group, h.NLevels())
		for l := range gs {
			for _, g := range h.GroupsAt(l) {
				ctl := &group{acks: make([]atomic.Uint64, len(g.Members)),
					red: make([]redSlot, len(g.Members)), members: g.Members}
				for s, m := range g.Members {
					if m == g.Leader {
						ctl.leader = s
					}
				}
				gs[l] = append(gs[l], ctl)
			}
		}
		w.hs = append(w.hs, h)
		w.groups = append(w.groups, gs)
		w.plans = append(w.plans, proto.Build(h, func(l, i int) *group { return gs[l][i] }))
	}
	for r := 0; r < n; r++ {
		w.cico[r] = make([]byte, 2048)
		w.cum[r] = make([]uint64, levels)
		w.mems[r] = rankMem{w: w, rank: r}
	}
	return w
}

// run executes body on every rank concurrently.
func (w *world) run(body func(rank int, m *rankMem)) {
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r, &w.mems[r])
		}(r)
	}
	wg.Wait()
}

func TestBuild(t *testing.T) {
	w := newWorld(t, 64)
	p := w.plans[5] // root 5 leads NUMA 1 ({4..7}) and the top group
	root := &p[5]
	if root.HasPull || root.PullLevel() != -1 || len(root.Lead) != 2 ||
		root.Lead[0].Level != 0 || root.Lead[1].Level != 1 {
		t.Fatalf("root plan: %+v", root)
	}
	other := &p[0] // leads NUMA 0, pulls from root 5 at the top
	if len(other.Lead) != 1 || !other.HasPull || other.Pull.Level != 1 || other.Pull.Leader != 5 {
		t.Fatalf("leader plan: %+v", other)
	}
	leaf := &p[6]
	if len(leaf.Lead) != 0 || leaf.PullLevel() != 0 || leaf.Pull.Leader != 5 || leaf.Pull.G != w.groups[5][0][1] {
		t.Fatalf("leaf plan: %+v", leaf)
	}
	if leaf.Pull.Slot != 2 { // members {4,5,6,7}
		t.Fatalf("leaf slot %d, want 2", leaf.Pull.Slot)
	}
}

// TestBcastFamily runs back-to-back broadcasts across the CICO and chunk
// boundaries from every root, checks every rank's bytes, and checks that
// the root's return certifies its whole tree: every non-leader ack in
// every group already holds the op's sequence.
func TestBcastFamily(t *testing.T) {
	w := newWorld(t, 512)
	for _, size := range []int{0, 1, 1024, 1025, 3000} {
		for root := 0; root < w.n; root++ {
			bufs := make([][]byte, w.n)
			for r := range bufs {
				bufs[r] = bytes.Repeat([]byte{byte(r + 100)}, size)
			}
			for i := range bufs[root] {
				bufs[root][i] = byte(i*7 + root)
			}
			want := append([]byte(nil), bufs[root]...)
			var lagging string
			w.run(func(r int, m *rankMem) {
				w.seq[r]++
				proto.Bcast(m, &w.plans[root][r], w.seq[r], w.cum[r], bufs[r], 0, size)
				if r != root {
					return
				}
				for l, lvl := range w.groups[root] {
					for gi, g := range lvl {
						for s := range g.acks {
							if s != g.leader && g.acks[s].Load() < w.seq[r] {
								lagging = fmt.Sprintf("level %d group %d slot %d", l, gi, s)
							}
						}
					}
				}
			})
			if lagging != "" {
				t.Fatalf("size %d root %d: root returned before the ack of %s", size, root, lagging)
			}
			for r := range bufs {
				if !bytes.Equal(bufs[r], want) {
					t.Fatalf("size %d root %d: rank %d got wrong bytes", size, root, r)
				}
			}
		}
	}
}

// TestFusedThenBcast runs fused batches of small broadcasts with blocking
// broadcasts between them on one communicator: the counters must advance
// as k blocking broadcasts would, so both kinds of op deliver.
func TestFusedThenBcast(t *testing.T) {
	w := newWorld(t, 256)
	const k, n = 3, 100
	for _, root := range []int{0, 3, 6} {
		subs := make([][]proto.Sub[[]byte], w.n)
		after := make([][]byte, w.n)
		for r := 0; r < w.n; r++ {
			for q := 0; q < k; q++ {
				b := make([]byte, n)
				if r == root {
					for i := range b {
						b[i] = byte(i + 31*q)
					}
				}
				subs[r] = append(subs[r], proto.Sub[[]byte]{Buf: b})
			}
			after[r] = make([]byte, 2000)
			if r == root {
				after[r][1999] = 42
			}
		}
		w.run(func(r int, m *rankMem) {
			first := w.seq[r] + 1
			w.seq[r] += k
			proto.Fused(m, &w.plans[root][r], first, w.cum[r], subs[r], n)
			w.seq[r]++
			proto.Bcast(m, &w.plans[root][r], w.seq[r], w.cum[r], after[r], 0, len(after[r]))
		})
		for r := 0; r < w.n; r++ {
			for q := 0; q < k; q++ {
				if !bytes.Equal(subs[r][q].Buf, subs[root][q].Buf) {
					t.Fatalf("root %d: rank %d sub-op %d got wrong bytes", root, r, q)
				}
			}
			if after[r][1999] != 42 {
				t.Fatalf("root %d: rank %d missed the broadcast after the batch", root, r)
			}
		}
	}
}

// TestBarrierHoldsEveryRank checks that no rank leaves a barrier before
// every rank has entered it.
func TestBarrierHoldsEveryRank(t *testing.T) {
	w := newWorld(t, 64)
	var arrived atomic.Int64
	for round := 1; round <= 5; round++ {
		var early atomic.Int64
		w.run(func(r int, m *rankMem) {
			arrived.Add(1)
			w.seq[r]++
			proto.Barrier(m, &w.plans[0][r], w.seq[r], w.cum[r])
			if arrived.Load() < int64(round*w.n) {
				early.Add(1)
			}
		})
		if early.Load() != 0 {
			t.Fatalf("round %d: %d ranks left the barrier early", round, early.Load())
		}
	}
}

// TestPhasesMatchObs pins proto's phase values to obs's, which is what
// lets a backend convert with obs.Phase(ph).
func TestPhasesMatchObs(t *testing.T) {
	for ph, want := range map[proto.Phase]obs.Phase{
		proto.PhaseExpose:      obs.PhaseExpose,
		proto.PhaseFlagWait:    obs.PhaseFlagWait,
		proto.PhaseChunkCopy:   obs.PhaseChunkCopy,
		proto.PhaseReduceSlice: obs.PhaseReduceSlice,
		proto.PhaseAck:         obs.PhaseAck,
	} {
		if obs.Phase(ph) != want {
			t.Errorf("proto phase %d != obs phase %d", ph, want)
		}
	}
}
