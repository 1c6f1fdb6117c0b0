package core

import (
	"reflect"
	"strings"
	"testing"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// observe installs a fresh registry as the process-wide world observer for
// the duration of one test body (worlds must be constructed while it is
// installed).
func observe(t *testing.T, trace bool) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry(trace)
	env.ObserveWorlds(reg)
	t.Cleanup(func() { env.Observer = nil })
	return reg
}

// TestCritBlameSumsToOpLatency is the pinned exactness gate of the
// critical-path analyzer, run over every collective core offers: in a
// virtual-time world the op clock partitions every operation, so each op's
// flight record has phase durations summing EXACTLY to End-Start, and the
// per-edge blame of the run sums exactly to the summed critical-lane
// latency — no tolerance. For the pipelined broadcast the span graph built
// from the trace must show the same property per op: each critical path
// covers its operation's full [Start, End].
func TestCritBlameSumsToOpLatency(t *testing.T) {
	const ranks, iters = 8, 6
	cases := []struct {
		name string
		size int // payload bytes (per-rank block for the v-collectives)
		op   func(c *Comm, p *env.Proc, small, big *mem.Buffer, n int)
	}{
		{"bcast-cico", 512, func(c *Comm, p *env.Proc, s, _ *mem.Buffer, n int) { c.Bcast(p, s, 0, n, 0) }},
		{"bcast-pipelined", 64 << 10, func(c *Comm, p *env.Proc, s, _ *mem.Buffer, n int) { c.Bcast(p, s, 0, n, 0) }},
		{"allreduce", 4096, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Allreduce(p, s, b, n, mpi.Float64, mpi.Sum) }},
		{"reduce", 4096, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Reduce(p, s, b, n, mpi.Float64, mpi.Sum, 0) }},
		{"barrier", 0, func(c *Comm, p *env.Proc, _, _ *mem.Buffer, _ int) { c.Barrier(p) }},
		{"allgather", 2048, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Allgather(p, s, b, n) }},
		{"scatter-cico", 64, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Scatter(p, b, s, n, 0) }},
		{"scatter", 4096, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Scatter(p, b, s, n, 0) }},
		{"gather", 4096, func(c *Comm, p *env.Proc, s, b *mem.Buffer, n int) { c.Gather(p, s, b, n, 0) }},
		{"ibcast-fused", 256, func(c *Comm, p *env.Proc, s, _ *mem.Buffer, n int) {
			var rs [4]*Request
			for i := range rs {
				rs[i] = c.Ibcast(p, s, 0, n, 0)
			}
			Waitall(p, rs[:]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := observe(t, true)
			w := world(t, topo.Epyc1P(), ranks)
			c := MustNew(w, DefaultConfig())
			if err := w.Run(func(p *env.Proc) {
				small := p.NewBuffer("small", max(tc.size, 1))
				big := p.NewBuffer("big", max(tc.size*ranks, 1))
				for it := 0; it < iters; it++ {
					p.HarnessBarrier() // aligned entries: op Start is rank-uniform
					tc.op(c, p, small, big, tc.size)
				}
			}); err != nil {
				t.Fatal(err)
			}

			recs := 0
			for lane := 0; lane < ranks; lane++ {
				for _, rec := range w.Obs.Rec.Flight().LaneRecords(lane) {
					if rec.Kind != obs.RecOp {
						continue
					}
					recs++
					var sum int64
					for _, d := range rec.Phase {
						sum += d
					}
					if sum != rec.Dur() {
						t.Fatalf("lane %d %s seq %d: phases sum to %d ticks, End-Start is %d", lane, rec.Op, rec.Seq, sum, rec.Dur())
					}
				}
			}
			if recs == 0 {
				t.Fatal("no op flight records")
			}
			blame, total, ops := w.Obs.Rec.CritTicks()
			if ops != iters {
				t.Fatalf("crit ops = %d, want %d", ops, iters)
			}
			if total <= 0 {
				t.Fatal("crit total is zero — no critical-lane latency accumulated")
			}
			var sum int64
			for e := obs.EdgeExpose; e <= obs.EdgeAck; e++ {
				sum += blame[e]
			}
			if sum != total {
				t.Fatalf("per-edge blame sums to %d ticks, measured critical-lane latency is %d ticks (exactness invariant)", sum, total)
			}
			if blame[obs.EdgeFabric] != 0 || blame[obs.EdgeNICStage] != 0 {
				t.Errorf("single-node run charged network edges: fabric=%d nic_stage=%d",
					blame[obs.EdgeFabric], blame[obs.EdgeNICStage])
			}
			if tc.name == "bcast-pipelined" {
				checkBcastCritPaths(t, reg, tc.size, iters, blame)
			}
		})
	}
}

// checkBcastCritPaths holds the pipelined broadcast run to its expected
// blame shape and to exact span-graph coverage.
func checkBcastCritPaths(t *testing.T, reg *obs.Registry, n, iters int, blame [obs.NEdges]int64) {
	t.Helper()
	if blame[obs.EdgeQueueWait] != 0 {
		t.Errorf("blocking run charged queue_wait: %d", blame[obs.EdgeQueueWait])
	}
	// The last-finishing lane of an aligned bcast is the root: its ack
	// freeze guard waits for every member's final ack, so expose/copy/ack
	// all carry blame.
	if blame[obs.EdgeExpose] == 0 || blame[obs.EdgeChunkCopy] == 0 || blame[obs.EdgeAck] == 0 {
		t.Errorf("bcast critical path missing expose/copy/ack blame: %v", blame)
	}

	// Span-graph view of the same run: every op's causal walk reaches the
	// op start, so coverage is exact there too.
	trs := reg.Tracers()
	if len(trs) != 1 {
		t.Fatalf("tracers = %d, want 1", len(trs))
	}
	g := obs.NewSpanGraph(trs[0].Spans())
	found := 0
	for _, cp := range g.CriticalPaths() {
		if cp.Op != obs.OpBcast.String() {
			continue
		}
		found++
		if cp.Covered != cp.End-cp.Start {
			t.Errorf("op %s seq %d: walk covered %d of %d ticks (must be exact in virtual time)",
				cp.Op, cp.Seq, cp.Covered, cp.End-cp.Start)
		}
		if cp.Bytes != int64(n) {
			t.Errorf("op %s seq %d: umbrella bytes = %d, want %d", cp.Op, cp.Seq, cp.Bytes, n)
		}
	}
	if found != iters {
		t.Errorf("span graph holds %d bcast critical paths, want %d", found, iters)
	}
}

// TestClusterCritBlameAndNetEdges drives the observed cluster path: the
// intra-node blame exactness holds per shard, and the leaders' NIC/fabric
// records show up as nic_stage/fabric overlay blame in the merged
// snapshot.
func TestClusterCritBlameAndNetEdges(t *testing.T) {
	reg := observe(t, false)
	cw, cc := clusterFixture(t, 4, 2)
	const n = 8192
	if err := cw.Run(func(p *env.Proc, node int) {
		buf := p.NewBuffer("b", n)
		for it := 0; it < 3; it++ {
			cw.HarnessBarrier(p, node)
			cc.Bcast(p, node, buf, 0, n, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for ni, w := range cw.Nodes {
		blame, total, ops := w.Obs.Rec.CritTicks()
		if ops == 0 || total == 0 {
			t.Fatalf("node %d: no critical-path steps recorded", ni)
		}
		var intra int64
		for e := obs.EdgeExpose; e <= obs.EdgeAck; e++ {
			intra += blame[e]
		}
		if intra != total {
			t.Errorf("node %d: intra-node blame %d != critical-lane total %d", ni, intra, total)
		}
	}
	snap := reg.Snapshot()
	if snap.Value("crit.nic_stage.blame_us") <= 0 {
		t.Error("cluster run charged no nic_stage blame")
	}
	if snap.Value("crit.fabric.blame_us") <= 0 {
		t.Error("cluster run charged no fabric blame")
	}
	if snap.Value("crit.ops") <= 0 || snap.Value("crit.path_us") <= 0 {
		t.Error("snapshot missing crit.ops / crit.path_us")
	}
}

// TestClusterStragglerScanDetectsNodeSkew is the inject -> detect -> dump
// gate at 4 nodes: one whole node enters every collective late. Its local
// detector sees nothing (its ranks are mutually uniform), but the
// cross-node scan that ClusterWorld.Run performs at the end must trip and
// dump a merged, node-qualified cluster-straggler record. The delayed
// node is the relay tree's leaf (node 3): delaying an interior node would
// make its downstream neighbors arrive even later, and the scan blames
// the latest arrival.
func TestClusterStragglerScanDetectsNodeSkew(t *testing.T) {
	reg := observe(t, false)
	cw, cc := clusterFixture(t, 4, 2)
	const n = 4096
	if err := cw.Run(func(p *env.Proc, node int) {
		buf := p.NewBuffer("b", n)
		for it := 0; it < 2; it++ {
			cw.HarnessBarrier(p, node)
			if node == 3 {
				p.Compute(500 * sim.Microsecond) // the whole shard is late
			}
			cc.Bcast(p, node, buf, 0, n, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Value("anomaly.stragglers"); got < 1 {
		t.Fatalf("anomaly.stragglers = %v, want >= 1 (node-level skew undetected)", got)
	}
	var cluster *obs.FlightDump
	for _, d := range reg.Dumps() {
		if d.Kind == "cluster-straggler" {
			cluster = d
		}
	}
	if cluster == nil {
		t.Fatalf("no cluster-straggler dump among %d dumps", len(reg.Dumps()))
	}
	if !strings.Contains(cluster.Reason, "node 3") {
		t.Errorf("dump reason %q does not name node 3", cluster.Reason)
	}
	offending, nodes := 0, map[int]bool{}
	for _, e := range cluster.Records {
		nodes[e.Node] = true
		if e.Offending {
			offending++
			if e.Node != 3 {
				t.Errorf("offending record on node %d, want 3", e.Node)
			}
		}
	}
	if offending == 0 {
		t.Error("merged dump marks no offending record")
	}
	if len(nodes) != 4 {
		t.Errorf("merged dump covers %d nodes, want all 4", len(nodes))
	}
}

// TestClusterSnapshotWorkerInvariance pins observability determinism on
// the sharded engine: the full registry snapshot — histogram cells,
// critical-path blame, every counter — is bit-identical whether the
// cluster ran its shards on one worker or many.
func TestClusterSnapshotWorkerInvariance(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		reg := observe(t, false)
		cw, cc := clusterFixture(t, 4, 4)
		cw.Workers = workers
		const n = 16384
		if err := cw.Run(func(p *env.Proc, node int) {
			buf := p.NewBuffer("b", n)
			for it := 0; it < 3; it++ {
				cw.HarnessBarrier(p, node)
				cc.Bcast(p, node, buf, 0, n, 0)
				cc.Barrier(p, node)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	ref := run(1)
	for _, workers := range []int{0, 4} { // 0: GOMAXPROCS
		got := run(workers)
		if !reflect.DeepEqual(ref.Metrics, got.Metrics) {
			for i := range ref.Metrics {
				if i < len(got.Metrics) && ref.Metrics[i] != got.Metrics[i] {
					t.Errorf("workers=%d: metric %q = %v, want %v", workers,
						got.Metrics[i].Name, got.Metrics[i].Value, ref.Metrics[i].Value)
				}
			}
			t.Fatalf("workers=%d: snapshot metrics differ from the sequential reference", workers)
		}
		if !reflect.DeepEqual(ref.Hists, got.Hists) {
			t.Fatalf("workers=%d: histogram cells differ from the sequential reference", workers)
		}
	}
}
