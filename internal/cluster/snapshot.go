package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"lama/internal/hw"
)

// Snapshot is a frozen, availability-stamped view of a cluster: the node
// set and every node's topology (with its current availability), captured
// atomically. A snapshot is immutable: every topology it holds is frozen
// (hw.Topology.Freeze), so a mutator called on one panics, and nothing may
// write its Cluster. Mutation events (node failure, partial PU failure, an
// added node) instead derive a NEW snapshot via copy-on-write: only the
// touched node's topology is cloned; every untouched *Node — and therefore
// its *hw.Topology pointer — is shared with the parent snapshot.
//
// Topologies are shared within a snapshot, too: SnapshotOf gives the nodes
// whose trees are interchangeable one frozen clone, so a homogeneous site
// of N nodes holds one tree. A *hw.Topology or *hw.Object therefore names
// a shape, not a node; code that counts per resource keys by (node index,
// object), as MapReference does.
//
// Sharing across siblings is what keeps a swap cheap. A mapper's dense
// maximal tree (internal/core/dense.go) records each node's topology
// pointer, so a mapper handed a sibling snapshot refreshes its tree in
// place: every node whose pointer still matches is kept untouched, and
// only the touched or appended nodes are resolved through the shape
// cache. The shared pruned shape (keyed by ShapeSig, which availability
// mutations never change) is reused even for the touched node, whose
// availability the tree reads from its new topology.
//
// Each derived snapshot carries an epoch, one greater than its parent's.
// An event that removes no usable PU derives nothing: the receiver comes
// back unchanged, at its own epoch.
// Epochs order the snapshots of one logical cluster, and a request
// carrying a stale epoch is detectably out of date. They do not name a
// snapshot: a rollback can republish an earlier one and derive a second
// snapshot at an epoch already used, so the engine keys its placement
// cache by its own publication number instead (internal/engine).
//
// lamavet's snapfrozen analyzer checks the contract statically: writes
// into a Snapshot are only legal in the //lama:mutator functions below,
// and mutating a topology reached through a snapshot is a finding
// anywhere. The freeze is the run-time half, for what the analyzer cannot
// follow.
//
//lama:frozen
type Snapshot struct {
	epoch uint64
	c     *Cluster
}

// SnapshotOf atomically captures a live cluster into an immutable snapshot
// at epoch 1. The snapshot holds frozen copies, so the caller is free to
// keep mutating its cluster. Nodes whose topologies are interchangeable
// (equal hw.Topology.AppendStateKey) share one frozen clone; derived
// snapshots are copy-on-write and clone only the node they touch.
//
//lama:mutator
//lama:cow Snapshot
//lama:cow Cluster
//lama:cow Node
//lama:api bench/lamaload, a separate module, builds its snapshots with it
func SnapshotOf(c *Cluster) *Snapshot {
	s := &Snapshot{epoch: 1, c: &Cluster{Nodes: make([]*Node, len(c.Nodes))}}
	shared := map[string]*hw.Topology{}
	var key []byte
	for i, n := range c.Nodes {
		key = n.Topo.AppendStateKey(key[:0])
		t, ok := shared[string(key)]
		if !ok {
			t = n.Topo.Clone()
			t.Freeze()
			shared[string(key)] = t
		}
		s.c.Nodes[i] = &Node{Name: n.Name, Topo: t, Slots: n.Slots, MaxSlots: n.MaxSlots}
	}
	return s
}

// HomogeneousSnapshot captures n identical spec-built nodes named
// node0..node(n-1) at epoch 1: the snapshot SnapshotOf(Homogeneous(n, sp))
// captures, built from one frozen tree that every node shares, instead of
// n trees that the capture then collapses to one. It computes no
// signature; Sig does that on demand. It panics on a non-positive n or an
// invalid spec, as Homogeneous does.
//
//lama:mutator
//lama:cow Snapshot
//lama:cow Node
func HomogeneousSnapshot(n int, sp hw.Spec) *Snapshot {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: non-positive node count %d", n))
	}
	s := &Snapshot{epoch: 1, c: &Cluster{Nodes: make([]*Node, n)}}
	topo := hw.New(sp)
	topo.Freeze()
	for i := range s.c.Nodes {
		s.c.Nodes[i] = &Node{Name: fmt.Sprintf("node%d", i), Topo: topo, Slots: 0, MaxSlots: 0}
	}
	return s
}

// Epoch returns the snapshot's epoch (1 for a fresh capture, parent+1 for
// every derived snapshot).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Cluster returns the frozen cluster. Callers must treat it as read-only;
// mapping over it is fine (mapping never mutates a cluster), mutating it
// corrupts every snapshot sharing its nodes.
func (s *Snapshot) Cluster() *Cluster { return s.c }

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.c.Nodes) }

// Sig returns a digest over every node's structural shape, availability
// set, and slot configuration. Two snapshots with equal Sig are
// placement-equivalent: any (layout, np, policy) request maps identically
// on both. It is computed on each call, in O(nodes), and is for display
// only (lamad's /v1/clusters and start-up log); nothing keys on it.
func (s *Snapshot) Sig() string {
	// Nodes that share a frozen tree and a slot policy share a
	// signature, so a homogeneous site formats one.
	type stamp struct {
		topo            *hw.Topology
		slots, maxSlots int
	}
	memo := map[stamp]string{}
	// The digest is order-sensitive: node order is the logical node
	// numbering. Each node's state key is written length-prefixed.
	h := sha256.New()
	var buf []byte
	for _, n := range s.c.Nodes {
		k := stamp{n.Topo, n.Slots, n.MaxSlots}
		sig, ok := memo[k]
		if !ok {
			sig = string(n.AppendStateKey(nil))
			memo[k] = sig
		}
		buf = append(binary.AppendUvarint(buf[:0], uint64(len(sig))), sig...)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// derive starts a COW mutation at the next epoch: a fresh Nodes slice
// that shares every *Node pointer, in which the caller replaces only the
// touched entry.
//
//lama:mutator
//lama:cow Snapshot
//lama:cow Cluster
func (s *Snapshot) derive() *Snapshot {
	return &Snapshot{
		epoch: s.epoch + 1,
		c:     &Cluster{Nodes: append([]*Node(nil), s.c.Nodes...)},
	}
}

// FailNode derives a snapshot in which node i is fully failed. Only node
// i's topology is cloned; healthy nodes — including ShapeSig twins of the
// failed node — keep their exact *hw.Topology pointers, so a mapper's
// dense tree keeps them as they are. The second result is false when i is
// out of range. The receiver is returned unchanged then, and when node i
// has no usable PU left to lose.
//
//lama:mutator
//lama:cow Node
func (s *Snapshot) FailNode(i int) (*Snapshot, bool) {
	n := s.c.Node(i)
	if n == nil {
		return s, false
	}
	if n.Topo.NumUsablePUs() == 0 {
		return s, true
	}
	child := s.derive()
	nn := &Node{Name: n.Name, Topo: n.Topo.Clone(), Slots: n.Slots, MaxSlots: n.MaxSlots}
	nn.Topo.SetAvailable(hw.LevelMachine, 0, false)
	nn.Topo.Freeze()
	child.c.Nodes[i] = nn
	return child, true
}

// FailPUs derives a snapshot in which the given PU OS indices of node i
// are off-lined (a partial failure such as a dead core). The second result
// is the number of PUs that changed from usable to failed; when zero the
// receiver is returned unchanged and no new epoch is minted.
//
//lama:mutator
//lama:cow Node
func (s *Snapshot) FailPUs(i int, pus *hw.CPUSet) (*Snapshot, int) {
	n := s.c.Node(i)
	if n == nil {
		return s, 0
	}
	lost := 0
	for _, pu := range n.Topo.UsablePUs() {
		if pus.Contains(pu.OS) {
			lost++
		}
	}
	if lost == 0 {
		return s, 0
	}
	child := s.derive()
	nn := &Node{Name: n.Name, Topo: n.Topo.Clone(), Slots: n.Slots, MaxSlots: n.MaxSlots}
	nn.Topo.Offline(pus)
	nn.Topo.Freeze()
	child.c.Nodes[i] = nn
	return child, lost
}

// AppendNode derives a snapshot grown by one node. The node is
// deep-copied on the way in so the caller's copy stays independent.
//
//lama:mutator
//lama:cow Node
func (s *Snapshot) AppendNode(n *Node) *Snapshot {
	child := s.derive()
	nn := &Node{Name: n.Name, Topo: n.Topo.Clone(), Slots: n.Slots, MaxSlots: n.MaxSlots}
	nn.Topo.Freeze()
	child.c.Nodes = append(child.c.Nodes, nn)
	return child
}
