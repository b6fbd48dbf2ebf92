package core

import (
	"sync"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// This file implements the dense, cache-backed representation of pruned
// topology views that the optimized mapping engine iterates over. The
// reference structures (PrunedTree, MaximalTree in maxtree.go) model the
// paper's §IV-B directly with one Go object per tree node; they remain the
// oracle that MapReference and the tests use. The engine below encodes the
// same trees as flat integer arrays so that the per-coordinate step of the
// mapping loop does no pointer chasing, no hashing, and no allocation:
//
//   - prunedShape is the availability-independent structure of a pruned
//     tree (child counts, dense leaf IDs, and each leaf's level and
//     logical index). It depends only on the topology's shape, so the
//     nodes of a homogeneous cluster share one prunedShape (the "build one
//     tree instead of N" memoization).
//   - denseTree is the per-mapper union of one shape per cluster node plus
//     the maximal widths — the iteration-driving maximal tree of §IV-B. It
//     records each node's topology, whose usable-PU window table answers
//     the availability check (§IV-A) for a leaf (hw.Topology.UsableAt).
//     shapeFor freezes a topology before the tree records it
//     (hw.Topology.Freeze), so that answer can never go stale:
//     availability changes come as new topologies, which is how
//     cluster.Snapshot derivations deliver them.

// prunedShape is the flattened structure of a pruned tree: node i's
// children occupy indices firstKid[i] .. firstKid[i]+kidCount[i]-1, the
// root is node 0, and nodes at the deepest pruned level carry a dense leaf
// ID in leafID (-1 elsewhere). Leaf l is the object of level leafLevel
// and logical index leafLogical[l]; logical indices follow the structure,
// so they name the same leaf on every topology with the same ShapeSig.
// Shapes are immutable once built — they are shared across every such
// topology, so lamavet's snapfrozen analyzer holds writes to the
// buildShape whitelist.
//
//lama:frozen
type prunedShape struct {
	levels      []hw.Level
	firstKid    []int32
	kidCount    []int32
	leafID      []int32
	leafLevel   hw.Level // the deepest pruned level, or the machine when none
	leafLogical []int32  // leaf ID -> logical index at leafLevel
	widths      []int    // per depth: max child count of any node at that depth
	numLeaves   int
}

// lookup resolves per-depth child indices (canonical order) to a dense
// leaf ID, or -1 when the coordinate does not exist on this shape.
//
//lama:hotpath
func (ps *prunedShape) lookup(coords []int) int32 {
	n := int32(0)
	for _, idx := range coords {
		if idx < 0 || int32(idx) >= ps.kidCount[n] {
			return -1
		}
		n = ps.firstKid[n] + int32(idx)
	}
	return ps.leafID[n]
}

// buildShape flattens the pruned view of one topology. The traversal is
// breadth-first so every node's children are contiguous; leaf IDs are
// assigned in visit order.
//
//lama:coldpath one-off shape construction per (topology, layout)
//lama:mutator
func buildShape(t *hw.Topology, levels []hw.Level) *prunedShape {
	ps := &prunedShape{
		levels:    levels,
		leafLevel: hw.LevelMachine,
		widths:    make([]int, len(levels)),
	}
	if len(levels) > 0 {
		ps.leafLevel = levels[len(levels)-1]
	}
	type item struct {
		obj   *hw.Object
		depth int
	}
	queue := []item{{t.Root, 0}}
	ps.firstKid = append(ps.firstKid, 0)
	ps.kidCount = append(ps.kidCount, 0)
	ps.leafID = append(ps.leafID, -1)
	var kids []*hw.Object
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if it.depth == len(levels) {
			ps.leafID[head] = int32(ps.numLeaves)
			ps.leafLogical = append(ps.leafLogical, int32(it.obj.Logical))
			ps.numLeaves++
			continue
		}
		kids = appendDescendantsAt(kids[:0], it.obj, levels[it.depth])
		ps.firstKid[head] = int32(len(queue))
		ps.kidCount[head] = int32(len(kids))
		if len(kids) > ps.widths[it.depth] {
			ps.widths[it.depth] = len(kids)
		}
		for _, k := range kids {
			queue = append(queue, item{k, it.depth + 1})
			ps.firstKid = append(ps.firstKid, 0)
			ps.kidCount = append(ps.kidCount, 0)
			ps.leafID = append(ps.leafID, -1)
		}
	}
	return ps
}

// levelsSig encodes a level list as a compact cache-key string.
func levelsSig(levels []hw.Level) string {
	b := make([]byte, len(levels))
	for i, l := range levels {
		b[i] = byte(l)
	}
	return string(b)
}

// shapeCache shares prunedShapes across structurally identical topologies
// (keyed by hw.Topology.ShapeSig), so a homogeneous cluster builds ONE
// pruned tree per level set no matter how many nodes it has. It is
// bounded: on overflow the whole map is dropped.
const shapeCacheMax = 512

type shapeKey struct {
	shape  string
	levels string
}

var (
	treeCacheMu sync.Mutex
	shapeCache  = map[shapeKey]*prunedShape{}
)

// shapeFor returns the (possibly cached) pruned shape of a topology for
// the given canonical intra-node levels. It freezes the topology first:
// the caller reads the topology's availability from then on.
func shapeFor(t *hw.Topology, levels []hw.Level, sig string) *prunedShape {
	treeCacheMu.Lock()
	defer treeCacheMu.Unlock()
	t.Freeze()
	sk := shapeKey{shape: t.ShapeSig(), levels: sig}
	shape, ok := shapeCache[sk]
	if !ok {
		shape = buildShape(t, levels)
		if len(shapeCache) >= shapeCacheMax {
			shapeCache = map[shapeKey]*prunedShape{}
		}
		shapeCache[sk] = shape
	}
	return shape
}

// denseTree is the engine's maximal tree (paper §IV-B): one pruned shape
// and one frozen topology per cluster node, the per-depth maximum widths
// that drive iteration, and a dense global leaf numbering (node n's leaf l
// has global ID leafBase[n]+l) for index-addressed claim counting. A tree
// belongs to one Mapper and is brought up to date in place by refresh.
type denseTree struct {
	levels      []hw.Level
	sig         string // levelsSig(levels), the shape-cache key part
	shapes      []*prunedShape
	topos       []*hw.Topology // per node: the topology the tree reads availability from
	widths      []int
	leafBase    []int32
	totalLeaves int
}

// refresh brings the tree up to date with a cluster's per-node topologies
// for the given intra-node levels; a zero denseTree is an empty tree, so a
// first build is a refresh that keeps nothing. A node is kept when its
// topology is the one the tree recorded — under copy-on-write snapshots
// that is every node a swap did not touch — and only changed or appended
// nodes go through shapeFor. Leaf numbering and widths are
// recomputed over all nodes; the per-node arrays are reused when their
// capacity allows.
func (dt *denseTree) refresh(c *cluster.Cluster, levels []hw.Level) {
	n := c.NumNodes()
	keep := min(len(dt.topos), n)
	if !levelsEqual(dt.levels, levels) {
		dt.levels, dt.sig = levels, levelsSig(levels)
		keep = 0
	}
	if n < len(dt.topos) {
		// Release the dropped nodes' shapes and topologies.
		clear(dt.shapes[n:])
		clear(dt.topos[n:])
	}
	dt.shapes = resized(dt.shapes, n)
	dt.topos = resized(dt.topos, n)
	dt.leafBase = resized(dt.leafBase, n)
	dt.widths = resized(dt.widths, len(levels))
	clear(dt.widths)
	dt.totalLeaves = 0
	for i, node := range c.Nodes {
		if i >= keep || node.Topo != dt.topos[i] {
			dt.shapes[i], dt.topos[i] = shapeFor(node.Topo, levels, dt.sig), node.Topo
		}
		shape := dt.shapes[i]
		dt.leafBase[i] = int32(dt.totalLeaves)
		dt.totalLeaves += shape.numLeaves
		for d, w := range shape.widths {
			if w > dt.widths[d] {
				dt.widths[d] = w
			}
		}
	}
}

// resized returns s with length n, keeping its first min(len(s), n)
// elements and reusing its backing array when the capacity is enough.
func resized[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]T, n)
	copy(grown, s)
	return grown
}

// freshFor reports whether every node still holds the topology the tree
// recorded. Recorded topologies are frozen, so identity is the whole
// check; it is still needed because Cluster.Nodes is an exported
// slice, and a mapper re-pointed at a sibling snapshot sees a cloned
// topology for every node the derivation touched.
func (dt *denseTree) freshFor(c *cluster.Cluster) bool {
	if len(dt.topos) != c.NumNodes() {
		return false
	}
	for i, node := range c.Nodes {
		if node.Topo != dt.topos[i] {
			return false
		}
	}
	return true
}
