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
//     tree (child counts and dense leaf IDs). It depends only on the
//     topology's shape, so the nodes of a homogeneous cluster share one
//     prunedShape (the "build one tree instead of N" memoization).
//   - nodeView binds a prunedShape to one concrete topology: leaf ID ->
//     hardware object, and a per-leaf cache of usable PU OS indices in the
//     exact order Object.UsablePUs would return them. Views are memoized
//     per (topology identity, levels). viewFor freezes a topology before
//     it caches a view of it (hw.Topology.Freeze), so a cached view can
//     never go stale: availability changes come as new topologies, which
//     is how cluster.Snapshot derivations deliver them.
//   - denseTree is the per-mapper union of one view per cluster node plus
//     the maximal widths — the iteration-driving maximal tree of §IV-B.

// prunedShape is the flattened structure of a pruned tree: node i's
// children occupy indices firstKid[i] .. firstKid[i]+kidCount[i]-1, the
// root is node 0, and nodes at the deepest pruned level carry a dense leaf
// ID in leafID (-1 elsewhere). Shapes are immutable once built — they are
// shared across every topology with the same ShapeSig, so lamavet's
// snapfrozen analyzer holds writes to the buildShape whitelist.
//
//lama:frozen
type prunedShape struct {
	levels    []hw.Level
	firstKid  []int32
	kidCount  []int32
	leafID    []int32
	widths    []int // per depth: max child count of any node at that depth
	numLeaves int
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
// assigned in visit order, which is the same deterministic order
// buildView uses to enumerate the corresponding objects.
//
//lama:coldpath one-off shape construction per (topology, layout)
//lama:mutator
func buildShape(t *hw.Topology, levels []hw.Level) *prunedShape {
	ps := &prunedShape{
		levels: levels,
		widths: make([]int, len(levels)),
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

// nodeView is one topology's pruned view: the shared shape plus the
// per-leaf object and usable-PU caches. It is immutable once built — views
// are cached by topology and shared across mappers, so writes are held to
// the buildView whitelist.
//
//lama:frozen
type nodeView struct {
	shape   *prunedShape
	leafObj []*hw.Object // leaf ID -> hardware object
	puOff   []int32      // leaf ID -> offset into pus (numLeaves+1 entries)
	pus     []int32      // usable PU OS indices, grouped by leaf, tree order
}

// usable reports the PU list of a leaf: empty when the resource is
// off-lined or all of its PUs are.
//
//lama:hotpath
func (v *nodeView) usable(leaf int32) []int32 {
	return v.pus[v.puOff[leaf]:v.puOff[leaf+1]]
}

// buildView binds a shape to a concrete topology, walking it once in the
// same breadth-first order as buildShape to collect leaf objects, then
// caching the OS indices of each leaf's usable PUs, its window of the
// topology's usable-PU list.
//
//lama:coldpath one-off per-node view construction
//lama:mutator
func buildView(t *hw.Topology, shape *prunedShape) *nodeView {
	v := &nodeView{
		shape:   shape,
		leafObj: make([]*hw.Object, 0, shape.numLeaves),
		puOff:   make([]int32, 1, shape.numLeaves+1),
		pus:     make([]int32, 0, t.NumUsablePUs()),
	}
	levels := shape.levels
	type item struct {
		obj   *hw.Object
		depth int
	}
	queue := []item{{t.Root, 0}}
	var kids []*hw.Object
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if it.depth == len(levels) {
			v.leafObj = append(v.leafObj, it.obj)
			continue
		}
		kids = appendDescendantsAt(kids[:0], it.obj, levels[it.depth])
		for _, k := range kids {
			queue = append(queue, item{k, it.depth + 1})
		}
	}
	for _, leaf := range v.leafObj {
		for _, pu := range t.UsableUnder(leaf) {
			v.pus = append(v.pus, int32(pu.OS))
		}
		v.puOff = append(v.puOff, int32(len(v.pus)))
	}
	return v
}

// levelsSig encodes a level list as a compact cache-key string.
func levelsSig(levels []hw.Level) string {
	b := make([]byte, len(levels))
	for i, l := range levels {
		b[i] = byte(l)
	}
	return string(b)
}

// The two memoization layers. shapeCache shares prunedShapes across
// structurally identical topologies (keyed by hw.Topology.ShapeSig), so a
// homogeneous cluster builds ONE pruned tree per level set no matter how
// many nodes it has. viewCache shares nodeViews across mappers by
// (topology identity, levels); the topology is frozen when its first view
// is cached, so an entry never goes stale. A cluster.Snapshot gives
// interchangeable nodes one topology, so a snapshot needs one view per
// distinct topology, not one per node: a homogeneous site of thousands of
// nodes resolves to a single entry. Both are bounded: on overflow the whole map is dropped, which
// also releases the *hw.Topology keys of clusters that are no longer in
// use.
const (
	shapeCacheMax = 512
	viewCacheMax  = 4096
)

type shapeKey struct {
	shape  string
	levels string
}

type viewKey struct {
	topo   *hw.Topology
	levels string
}

var (
	treeCacheMu sync.Mutex
	shapeCache  = map[shapeKey]*prunedShape{}
	viewCache   = map[viewKey]*nodeView{}
)

// viewFor returns the (possibly cached) pruned view of a topology for the
// given canonical intra-node levels, freezing the topology on a miss.
func viewFor(t *hw.Topology, levels []hw.Level, sig string) *nodeView {
	treeCacheMu.Lock()
	defer treeCacheMu.Unlock()
	vk := viewKey{topo: t, levels: sig}
	if v, ok := viewCache[vk]; ok {
		return v
	}
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
	v := buildView(t, shape)
	if len(viewCache) >= viewCacheMax {
		viewCache = map[viewKey]*nodeView{}
	}
	viewCache[vk] = v
	return v
}

// denseTree is the engine's maximal tree (paper §IV-B): one pruned view
// per cluster node plus the per-depth maximum widths that drive iteration,
// and a dense global leaf numbering (node n's leaf l has global ID
// leafBase[n]+l) for index-addressed claim counting. A tree belongs to one
// Mapper and is brought up to date in place by refresh.
type denseTree struct {
	levels      []hw.Level
	sig         string // levelsSig(levels), the view-cache key part
	views       []*nodeView
	widths      []int
	leafBase    []int32
	totalLeaves int
	topos       []*hw.Topology // per node: topology identity the view was built from
}

// refresh brings the tree up to date with a cluster's per-node topologies
// for the given intra-node levels; a zero denseTree is an empty tree, so a
// first build is a refresh that keeps nothing. A node keeps its view when
// its topology is the one the tree recorded — under copy-on-write
// snapshots that is every node a swap did not touch — and only changed or
// appended nodes go through viewFor. Leaf numbering and widths are
// recomputed over all nodes; the per-node arrays are reused when their
// capacity allows.
func (dt *denseTree) refresh(c *cluster.Cluster, levels []hw.Level) {
	n := c.NumNodes()
	keep := min(len(dt.views), n)
	if !levelsEqual(dt.levels, levels) {
		dt.levels, dt.sig = levels, levelsSig(levels)
		keep = 0
	}
	if n < len(dt.views) {
		// Release the dropped nodes' views and topologies.
		clear(dt.views[n:])
		clear(dt.topos[n:])
	}
	dt.views = resized(dt.views, n)
	dt.topos = resized(dt.topos, n)
	dt.leafBase = resized(dt.leafBase, n)
	dt.widths = resized(dt.widths, len(levels))
	clear(dt.widths)
	dt.totalLeaves = 0
	for i, node := range c.Nodes {
		if i >= keep || node.Topo != dt.topos[i] {
			dt.views[i], dt.topos[i] = viewFor(node.Topo, levels, dt.sig), node.Topo
		}
		shape := dt.views[i].shape
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

// freshFor reports whether every node still holds the topology its view
// was built from. Topologies are frozen once viewed, so identity is the
// whole check; it is still needed because Cluster.Nodes is an exported
// slice, and a mapper re-pointed at a sibling snapshot sees a cloned
// topology for every node the derivation touched.
func (dt *denseTree) freshFor(c *cluster.Cluster) bool {
	if len(dt.views) != c.NumNodes() {
		return false
	}
	for i, node := range c.Nodes {
		if node.Topo != dt.topos[i] {
			return false
		}
	}
	return true
}
