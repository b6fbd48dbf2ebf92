// Package baseline implements the traditional mapping strategies the paper
// compares against (§II): the by-slot and by-node round-robin patterns all
// MPI implementations provide, MPICH2-style pack/scatter at one topology
// level, and a random mapper. Each is implemented independently of the
// LAMA machinery (straightforward loop nests over the actual topologies)
// so that equivalence tests between a baseline and the corresponding LAMA
// layout genuinely cross-validate the algorithm.
package baseline

import (
	"fmt"
	"math/rand"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// placer collects a baseline's placements in rank order. It stops the
// enumeration at np, so a request costs what it places, not what the
// cluster holds: the map is a core.NewPUMap of np ranks. An np past the
// cluster's usable PUs, which bound every baseline's slot count, cannot be
// placed, so then the slots are only counted, for the error.
type placer struct {
	c  *cluster.Cluster
	np int
	m  *core.Map // nil when np exceeds the usable PUs
	n  int       // ranks placed, or slots counted
}

// newPlacer starts a map of np ranks, or fails for a non-positive np.
func newPlacer(c *cluster.Cluster, np int) (*placer, error) {
	if np <= 0 {
		return nil, fmt.Errorf("baseline: non-positive process count %d", np)
	}
	p := &placer{c: c, np: np}
	if np <= c.TotalUsablePUs() {
		p.m = core.NewPUMap(np)
	}
	return p, nil
}

// add places the next rank on pu of node. It reports whether that rank
// was the last of the np.
func (p *placer) add(node int, pu *hw.Object) bool {
	rank := p.n
	p.n++
	if p.m == nil {
		return false
	}
	p.m.SetPU(rank, node, p.c.Node(node).Name, pu)
	return p.n == p.np
}

// exhausted reports the error for slots that ran out before np ranks were
// placed: these baselines do not oversubscribe. Every slot was placed or
// counted on the way, so the count is the full slot count.
func (p *placer) exhausted(name string) error {
	return fmt.Errorf("baseline: %s: %d ranks exceed %d processing units", name, p.np, p.n)
}

// BySlot packs ranks onto the slots of each node in turn: all first
// hardware threads of node 0's cores, node 1's, ..., then second threads
// (the "bunch/pack/block" pattern of §II). Equivalent to LAMA "csbnh" on
// regular machines.
func BySlot(c *cluster.Cluster, np int) (*core.Map, error) {
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	for t := 0; ; t++ {
		progressed := false
		for i, node := range c.Nodes {
			for _, pu := range node.Topo.ThreadRound(t) {
				if p.add(i, pu) {
					return p.m, nil
				}
				progressed = true
			}
		}
		if !progressed {
			return nil, p.exhausted("by-slot")
		}
	}
}

// ByNode deals ranks round-robin across nodes (the "scatter/cyclic"
// pattern of §II): rank r goes to node r mod N, taking that node's next
// free slot in thread-major order (hw.Topology.ThreadMajorPUs).
// Equivalent to LAMA "ncsbh" on regular homogeneous machines.
func ByNode(c *cluster.Cluster, np int) (*core.Map, error) {
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	for round := 0; ; round++ {
		progressed := false
		for i, node := range c.Nodes {
			if s := node.Topo.ThreadMajorPUs(); round < len(s) {
				if p.add(i, s[round]) {
					return p.m, nil
				}
				progressed = true
			}
		}
		if !progressed {
			return nil, p.exhausted("by-node")
		}
	}
}

// Pack fills each object of the given level completely (all its usable
// PUs) before moving to the next object — MPICH2's "pack at a level".
// The objects of a level are in DFS order and their subtrees disjoint, so
// the slots are the node's usable PUs that sit under some object of the
// level, in order.
func Pack(c *cluster.Cluster, level hw.Level, np int) (*core.Map, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("baseline: invalid level")
	}
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	for i, node := range c.Nodes {
		for _, obj := range node.Topo.Objects(level) {
			for _, pu := range node.Topo.UsableUnder(obj) {
				if p.add(i, pu) {
					return p.m, nil
				}
			}
		}
	}
	return nil, p.exhausted("pack")
}

// Scatter deals ranks round-robin across the objects of the given level,
// cluster-wide — MPICH2's "scatter at a level". Round r places usable PU
// r of every object that has one, so a job smaller than the level's
// object count never looks past its last object.
func Scatter(c *cluster.Cluster, level hw.Level, np int) (*core.Map, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("baseline: invalid level")
	}
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	for round := 0; ; round++ {
		progressed := false
		for i, node := range c.Nodes {
			for _, obj := range node.Topo.Objects(level) {
				if pus := node.Topo.UsableUnder(obj); round < len(pus) {
					if p.add(i, pus[round]) {
						return p.m, nil
					}
					progressed = true
				}
			}
		}
		if !progressed {
			return nil, p.exhausted("scatter")
		}
	}
}

// Random maps ranks onto a seeded random permutation of all usable PUs —
// the placement a topology-oblivious scheduler might produce, used as the
// pessimal baseline in the evaluation.
func Random(c *cluster.Cluster, seed int64, np int) (*core.Map, error) {
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	type slot struct {
		node int
		pu   *hw.Object
	}
	slots := make([]slot, 0, c.TotalUsablePUs())
	for i, node := range c.Nodes {
		for _, pu := range node.Topo.UsablePUs() {
			slots = append(slots, slot{node: i, pu: pu})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	for _, s := range slots {
		if p.add(s.node, s.pu) {
			return p.m, nil
		}
	}
	return nil, p.exhausted("random")
}

// Plane implements SLURM's plane distribution (paper §II): consecutive
// blocks of blockSize ranks are dealt round-robin across nodes, so rank
// blocks land on node 0, node 1, ..., wrapping, while ranks within a
// block stay together on one node's next free slots.
func Plane(c *cluster.Cluster, blockSize, np int) (*core.Map, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("baseline: plane block size %d", blockSize)
	}
	p, err := newPlacer(c, np)
	if err != nil {
		return nil, err
	}
	cursor := make([]int, c.NumNodes())
	for node := 0; ; node = (node + 1) % c.NumNodes() {
		// Find the next node with capacity, starting from `node`.
		tried := 0
		for tried < c.NumNodes() && cursor[node] >= len(c.Nodes[node].Topo.ThreadMajorPUs()) {
			node = (node + 1) % c.NumNodes()
			tried++
		}
		if tried == c.NumNodes() {
			return nil, p.exhausted("plane")
		}
		s := c.Nodes[node].Topo.ThreadMajorPUs()
		for k := 0; k < blockSize && cursor[node] < len(s); k++ {
			if p.add(node, s[cursor[node]]) {
				return p.m, nil
			}
			cursor[node]++
		}
	}
}
