// Package cluster models an HPC system: a set of named compute nodes, each
// with its own hardware topology (possibly different across nodes), slot
// counts, and scheduler restrictions. It is the "allocated resources" view
// that a mapping agent receives after the resource manager has granted a
// job its nodes (paper §III-A).
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"lama/internal/hw"
)

// Node is one compute node of a cluster.
type Node struct {
	// Name is the host name (unique within a cluster).
	Name string
	// Topo is the node's hardware topology, including any availability
	// restrictions imposed by the OS or scheduler.
	Topo *hw.Topology
	// Slots is the scheduler's slot count for the node: how many processes
	// the site policy allows before the node counts as oversubscribed.
	// Zero means "use the number of usable cores" (the common default).
	Slots int
	// MaxSlots is the hard slot cap (Open MPI hostfile "max_slots"): even
	// with oversubscription allowed, the node accepts at most this many
	// processes. Zero means no hard cap.
	MaxSlots int
}

// AppendStateKey appends to dst a key two nodes share exactly when a
// mapping run cannot tell them apart: interchangeable topologies
// (hw.Topology.AppendStateKey: shape, OS numbering, availability) and the
// same slot limits.
//
//lama:cow Node
func (n *Node) AppendStateKey(dst []byte) []byte {
	_ = n.Name // excluded: renaming a node does not change how it maps
	dst = n.Topo.AppendStateKey(dst)
	dst = strconv.AppendInt(append(dst, '|'), int64(n.Slots), 10)
	return strconv.AppendInt(append(dst, '/'), int64(n.MaxSlots), 10)
}

// EffectiveSlots resolves the node's slot count: an explicit count if set,
// otherwise the number of usable cores (or usable PUs when a core-less
// decoded topology is in use).
func (n *Node) EffectiveSlots() int {
	if n.Slots > 0 {
		return n.Slots
	}
	if cores := len(n.Topo.ThreadRound(0)); cores > 0 {
		return cores
	}
	return n.Topo.NumUsablePUs()
}

// CheckSlots rejects slot counts the node's hardware cannot honour:
// Slots and MaxSlots must lie in [0, usable PUs], and a MaxSlots hard cap
// may not be below Slots. Such a node describes impossible placements.
// Every path that takes slot counts from outside (a hostfile line, an
// add-node event) checks its node with it.
func (n *Node) CheckSlots() error {
	usable := n.Topo.NumUsablePUs()
	switch {
	case n.Slots < 0 || n.MaxSlots < 0:
		return fmt.Errorf("node %q declares slots=%d maxslots=%d; counts may not be negative", n.Name, n.Slots, n.MaxSlots)
	case n.Slots > usable:
		return fmt.Errorf("node %q declares slots=%d but has only %d usable PUs", n.Name, n.Slots, usable)
	case n.MaxSlots > usable:
		return fmt.Errorf("node %q declares maxslots=%d but has only %d usable PUs", n.Name, n.MaxSlots, usable)
	case n.MaxSlots > 0 && n.MaxSlots < n.Slots:
		return fmt.Errorf("node %q declares maxslots=%d < slots=%d", n.Name, n.MaxSlots, n.Slots)
	}
	return nil
}

// Cluster is an ordered set of nodes. Node order is the logical node
// numbering ("n" level) used by mapping algorithms.
type Cluster struct {
	Nodes []*Node
}

// ParseNodesSpec parses "<nodes>x<spec>": a positive node count, then a
// preset name or colon form for hw.ParseSpec. It is the one parse of
// lamamap's -cluster and lamad's -clusters entries; what names the input
// in the error text.
func ParseNodesSpec(text, what string) (int, hw.Spec, error) {
	nStr, specStr, ok := strings.Cut(text, "x")
	if !ok {
		return 0, hw.Spec{}, fmt.Errorf("bad %s %q: want <nodes>x<spec>", what, text)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		return 0, hw.Spec{}, fmt.Errorf("bad node count in %s %q", what, text)
	}
	sp, err := hw.ParseSpec(specStr)
	return n, sp, err
}

// Homogeneous builds a cluster of n identical nodes from a spec. Nodes are
// named node0..node(n-1). Each node's tree is a clone of one built tree,
// so all of them share one hierarchy table (hw.Hierarchy).
func Homogeneous(n int, sp hw.Spec) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: non-positive node count %d", n))
	}
	c := &Cluster{}
	topo := hw.New(sp)
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &Node{
			Name: fmt.Sprintf("node%d", i),
			Topo: topo.Clone(),
		})
	}
	return c
}

// FromSpecs builds a (possibly heterogeneous) cluster with one node per
// spec.
func FromSpecs(specs ...hw.Spec) *Cluster {
	c := &Cluster{}
	for i, sp := range specs {
		c.Nodes = append(c.Nodes, &Node{
			Name: fmt.Sprintf("node%d", i),
			Topo: hw.New(sp),
		})
	}
	return c
}

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// Node returns the i-th node, or nil if out of range.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[i]
}

// NodeByName returns the node with the given name and its index, or
// (nil, -1).
func (c *Cluster) NodeByName(name string) (*Node, int) {
	for i, n := range c.Nodes {
		if n.Name == name {
			return n, i
		}
	}
	return nil, -1
}

// TotalUsablePUs returns the cluster-wide usable PU count.
func (c *Cluster) TotalUsablePUs() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Topo.NumUsablePUs()
	}
	return total
}

// Homogeneous reports whether all nodes have structurally identical level
// counts and availability totals. A homogeneous cluster with scheduler
// restrictions on some nodes is reported as heterogeneous, matching the
// paper's observation that restrictions make homogeneous hardware look
// heterogeneous (§III-A).
func (c *Cluster) Homogeneous() bool {
	if len(c.Nodes) <= 1 {
		return true
	}
	first := c.Nodes[0].Topo
	for _, n := range c.Nodes[1:] {
		for _, l := range hw.Levels {
			if n.Topo.NumObjects(l) != first.NumObjects(l) {
				return false
			}
		}
		if n.Topo.NumUsablePUs() != first.NumUsablePUs() {
			return false
		}
	}
	return true
}

// Summary renders a short multi-line description of the cluster.
func (c *Cluster) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d nodes, %d usable PUs, homogeneous=%v\n",
		c.NumNodes(), c.TotalUsablePUs(), c.Homogeneous())
	for _, n := range c.Nodes {
		fmt.Fprintf(&sb, "  %-8s %s\n", n.Name, n.Topo.Summary())
	}
	return sb.String()
}
