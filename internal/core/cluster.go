// Cluster collectives: the network level above the node hierarchy. Each
// node runs the unmodified intra-node XHC machinery (single-copy flags,
// CICO/XPMEM data paths); the node leaders form one extra hierarchy level
// on top, exchanging over the fabric through per-node NIC staging buffers
// — CICO-style staging across the wire, single-copy within each node.
// Leader election follows the paper's root-following rule lifted one
// level: the root's node elects the root itself (hier.BuildCluster), so
// fabric trees are rooted at the actual root rank and no extra intra-node
// hop is paid on the root's node.
package core

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
)

// ClusterComm is a communicator spanning a ClusterWorld: one intra-node
// Comm per node plus the fabric level run by the node leaders.
type ClusterComm struct {
	CW  *env.ClusterWorld
	Cfg Config

	// Node[i] is node i's intra-node communicator.
	Node []*Comm

	nic []*nicBuf
	// netSeq[i] numbers node i's leader network ops (the RecNet record
	// stream — disjoint from the intra-node collective seq space).
	netSeq []uint64
}

// nicBuf is one node's NIC staging region: tx stages outgoing payloads
// (snapshotted by the fabric at send time), rx receives incoming ones
// (DMA-written by the fabric), and red is the leader's accumulator for
// rooted reductions on non-root nodes (MPI leaves non-root recv buffers
// untouched, so the node partial cannot go through the user's rbuf). All
// grow to the largest message seen and are then reused, so the steady
// state allocates nothing.
type nicBuf struct {
	tx, rx, red *mem.Buffer
}

// NewCluster builds a cluster communicator over cw with the given
// intra-node configuration.
func NewCluster(cw *env.ClusterWorld, cfg Config) (*ClusterComm, error) {
	cc := &ClusterComm{
		CW:     cw,
		Cfg:    cfg,
		Node:   make([]*Comm, len(cw.Nodes)),
		nic:    make([]*nicBuf, len(cw.Nodes)),
		netSeq: make([]uint64, len(cw.Nodes)),
	}
	for i, w := range cw.Nodes {
		c, err := New(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: cluster node %d: %w", i, err)
		}
		cc.Node[i] = c
		cc.nic[i] = &nicBuf{}
	}
	return cc, nil
}

// localRoot maps a global root rank to the within-node root a node's
// intra-node collective runs with (root-following leader election).
func (cc *ClusterComm) localRoot(node, root int) int {
	if node == root/cc.CW.PerNode {
		return root % cc.CW.PerNode
	}
	return 0
}

func (cc *ClusterComm) checkRoot(root int) {
	if root < 0 || root >= cc.CW.N {
		panic(fmt.Sprintf("core: cluster root %d out of range for %d ranks", root, cc.CW.N))
	}
}

// ensureNIC grows node's staging buffers to hold n bytes (min 1, so
// zero-byte control traffic has a region to address).
func (cc *ClusterComm) ensureNIC(node, n int) *nicBuf {
	nb := cc.nic[node]
	if n < 1 {
		n = 1
	}
	if nb.tx == nil || nb.tx.Len() < n {
		w := cc.CW.Nodes[node]
		nb.tx = w.NewBufferAt(fmt.Sprintf("nic%d.tx", node), 0, n)
		nb.rx = w.NewBufferAt(fmt.Sprintf("nic%d.rx", node), 0, n)
	}
	return nb
}

// netClock starts the op clock of one leader fabric op, committing
// through RecordNet under the node's own netSeq stream (nil unobserved).
func (cc *ClusterComm) netClock(p *env.Proc, node int, op obs.OpCode, bytes int64) *obs.OpClock {
	cc.netSeq[node]++
	return cc.Node[node].clocks.StartNet(p.Rank, op, cc.netSeq[node], bytes)
}

// fabricBcast runs the network-level binomial broadcast among node
// leaders: receive n bytes into the NIC staging region from the parent,
// copy them into buf (the single intra-node copy), then relay buf to the
// children largest-subtree-first. Called by node leaders only.
func (cc *ClusterComm) fabricBcast(p *env.Proc, node, rootNode int, buf *mem.Buffer, off, n int, pc *obs.OpClock) {
	nn := cc.CW.Cl.Nodes
	rel := (node - rootNode + nn) % nn
	mask := 1
	for mask < nn {
		if rel&mask != 0 {
			parent := (rel - mask + rootNode) % nn
			nb := cc.ensureNIC(node, n)
			cc.CW.Recv(p, node, parent, nb.rx, 0, n)
			pc.Mark(-1, obs.PhaseFabric, int64(n))
			if n > 0 {
				p.Copy(buf, off, nb.rx, 0, n)
				pc.Mark(-1, obs.PhaseNICStage, int64(n))
			}
			break
		}
		mask <<= 1
	}
	staged := false
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < nn {
			child := (rel + mask + rootNode) % nn
			nb := cc.ensureNIC(node, n)
			if n > 0 && !staged {
				p.Copy(nb.tx, 0, buf, off, n)
				staged = true
				pc.Mark(-1, obs.PhaseNICStage, int64(n))
			}
			cc.CW.Send(p, node, child, nb.tx, 0, n)
			pc.Mark(-1, obs.PhaseFabric, int64(n))
		}
	}
}

// fabricReduce runs the network-level binomial reduction of acc[:n] to
// rootNode's leader: receive children's partials into the NIC staging
// region, fold them into acc with the real reduction kernel, then forward
// the partial to the parent. Called by node leaders only.
func (cc *ClusterComm) fabricReduce(p *env.Proc, node, rootNode int, acc *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, pc *obs.OpClock) {
	nn := cc.CW.Cl.Nodes
	rel := (node - rootNode + nn) % nn
	mask := 1
	for mask < nn {
		if rel&mask == 0 {
			src := rel | mask
			if src < nn {
				nb := cc.ensureNIC(node, n)
				cc.CW.Recv(p, node, (src+rootNode)%nn, nb.rx, 0, n)
				pc.Mark(-1, obs.PhaseFabric, int64(n))
				if n > 0 {
					p.ChargeRead(nb.rx, 0, n)
					p.ChargeCompute(n)
					mpi.ReduceBytes(op, dt, acc.Data[:n], nb.rx.Data[:n])
					p.Dirty(acc)
					pc.Mark(-1, obs.PhaseReduceSlice, int64(n))
				}
			}
		} else {
			parent := (rel&^mask + rootNode) % nn
			nb := cc.ensureNIC(node, n)
			if n > 0 {
				p.Copy(nb.tx, 0, acc, 0, n)
				pc.Mark(-1, obs.PhaseNICStage, int64(n))
			}
			cc.CW.Send(p, node, parent, nb.tx, 0, n)
			pc.Mark(-1, obs.PhaseFabric, int64(n))
			break
		}
		mask <<= 1
	}
}

// fabricBarrier is a zero-payload gather to node 0 plus a release
// broadcast — the network-level barrier among node leaders.
func (cc *ClusterComm) fabricBarrier(p *env.Proc, node int, pc *obs.OpClock) {
	nn := cc.CW.Cl.Nodes
	rel := node
	mask := 1
	for mask < nn {
		if rel&mask == 0 {
			src := rel | mask
			if src < nn {
				cc.CW.Recv(p, node, src, nil, 0, 0)
				pc.Mark(-1, obs.PhaseFabric, 0)
			}
		} else {
			cc.CW.Send(p, node, rel&^mask, nil, 0, 0)
			pc.Mark(-1, obs.PhaseFabric, 0)
			break
		}
		mask <<= 1
	}
	cc.fabricBcast(p, node, 0, nil, 0, 0, pc)
}

// Bcast broadcasts buf[off:off+n] from global rank root to all ranks of
// the cluster. Every rank calls it with its local Proc and node index.
func (cc *ClusterComm) Bcast(p *env.Proc, node int, buf *mem.Buffer, off, n, root int) {
	cc.checkRoot(root)
	lr := cc.localRoot(node, root)
	if cc.CW.Cl.Nodes > 1 && n > 0 && p.Rank == lr {
		pc := cc.netClock(p, node, obs.OpBcast, int64(n))
		cc.fabricBcast(p, node, root/cc.CW.PerNode, buf, off, n, pc)
		pc.Finish()
	}
	cc.Node[node].Bcast(p, buf, off, n, lr)
}

// Allreduce reduces sbuf[:n] across all ranks with op/dt and leaves the
// result in every rank's rbuf[:n]: intra-node reduction to each node
// leader, network-level binomial reduce to node 0, result broadcast back
// down the fabric and then within each node.
func (cc *ClusterComm) Allreduce(p *env.Proc, node int, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) {
	if cc.CW.Cl.Nodes == 1 {
		cc.Node[node].Allreduce(p, sbuf, rbuf, n, dt, op)
		return
	}
	cc.Node[node].Reduce(p, sbuf, rbuf, n, dt, op, 0)
	if p.Rank == 0 && n > 0 {
		pc := cc.netClock(p, node, obs.OpAllreduce, int64(n))
		cc.fabricReduce(p, node, 0, rbuf, n, dt, op, pc)
		cc.fabricBcast(p, node, 0, rbuf, 0, n, pc)
		pc.Finish()
	}
	cc.Node[node].Bcast(p, rbuf, 0, n, 0)
}

// Reduce reduces sbuf[:n] across all ranks into root's rbuf[:n]: the
// intra-node reductions feed a network-level binomial reduce rooted at
// the root's node, whose leader IS the root (root-following election), so
// the result lands in root's rbuf without an extra hop.
func (cc *ClusterComm) Reduce(p *env.Proc, node int, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, root int) {
	cc.checkRoot(root)
	if cc.CW.Cl.Nodes == 1 {
		cc.Node[node].Reduce(p, sbuf, rbuf, n, dt, op, root)
		return
	}
	lr := cc.localRoot(node, root)
	rootNode := root / cc.CW.PerNode
	// Non-root nodes accumulate through a leader-side scratch: MPI leaves
	// non-root recv buffers untouched, so the node partial cannot clobber
	// the user's rbuf there. On the root's node the leader IS the root.
	acc := rbuf
	if p.Rank == lr && node != rootNode {
		acc = cc.reduceScratch(node, n)
	}
	cc.Node[node].Reduce(p, sbuf, acc, n, dt, op, lr)
	if p.Rank == lr && n > 0 {
		pc := cc.netClock(p, node, obs.OpReduce, int64(n))
		cc.fabricReduce(p, node, rootNode, acc, n, dt, op, pc)
		pc.Finish()
	}
}

// reduceScratch grows node's rooted-reduce accumulator to n bytes.
func (cc *ClusterComm) reduceScratch(node, n int) *mem.Buffer {
	nb := cc.nic[node]
	if n < 1 {
		n = 1
	}
	if nb.red == nil || nb.red.Len() < n {
		nb.red = cc.CW.Nodes[node].NewBufferAt(fmt.Sprintf("nic%d.red", node), 0, n)
	}
	return nb.red
}

// Barrier blocks until every rank of the cluster has entered it: an
// intra-node barrier gathers each node, the leaders run a zero-payload
// fabric barrier, and a second intra-node barrier releases the members
// (who cannot leave it before their leader returns from the fabric).
func (cc *ClusterComm) Barrier(p *env.Proc, node int) {
	cc.Node[node].Barrier(p)
	if cc.CW.Cl.Nodes > 1 && p.Rank == 0 {
		pc := cc.netClock(p, node, obs.OpBarrier, 0)
		cc.fabricBarrier(p, node, pc)
		pc.Finish()
	}
	cc.Node[node].Barrier(p)
}
