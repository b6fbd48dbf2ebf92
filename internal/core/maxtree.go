package core

import (
	"lama/internal/hw"
)

// prunedNode is one object of a pruned topology view: an object at a level
// the layout specifies, whose children are the nearest descendants at the
// next-deeper specified level. Pruning a level re-parents (and renumbers)
// its children onto their grandparent, exactly as §IV-B describes.
type prunedNode struct {
	obj      *hw.Object
	children []*prunedNode
}

// PrunedTree is a single node's topology restricted to the layout's
// intra-node levels (canonical containment order). The root represents the
// machine itself and carries no level of its own.
type PrunedTree struct {
	levels []hw.Level // canonical order, e.g. [socket core]
	root   *prunedNode
	widths []int // cached by Widths after first computation
}

// NewPrunedTree builds the pruned view of a node topology for the given
// intra-node levels (must be sorted in canonical containment order, as
// produced by Layout.IntraNode).
func NewPrunedTree(t *hw.Topology, levels []hw.Level) *PrunedTree {
	pt := &PrunedTree{levels: levels, root: &prunedNode{obj: t.Root}}
	var build func(pn *prunedNode, depth int)
	build = func(pn *prunedNode, depth int) {
		if depth >= len(levels) {
			return
		}
		for _, obj := range descendantsAt(pn.obj, levels[depth]) {
			child := &prunedNode{obj: obj}
			pn.children = append(pn.children, child)
			build(child, depth+1)
		}
	}
	build(pt.root, 0)
	return pt
}

// descendantsAt returns, in tree order, the objects of the given level in
// o's subtree (o itself if it is at that level). Intervening pruned levels
// are flattened, which implements the "children become those of the
// parent, renumbered" rule.
func descendantsAt(o *hw.Object, level hw.Level) []*hw.Object {
	return appendDescendantsAt(nil, o, level)
}

// appendDescendantsAt is descendantsAt into a caller-supplied accumulator:
// one slice grows across the whole recursion instead of every interior
// call concatenating its children's results (quadratic allocation on deep
// trees).
func appendDescendantsAt(dst []*hw.Object, o *hw.Object, level hw.Level) []*hw.Object {
	if o.Level == level {
		return append(dst, o)
	}
	if o.Level > level {
		return dst
	}
	for _, c := range o.Children {
		dst = appendDescendantsAt(dst, c, level)
	}
	return dst
}

// Lookup resolves per-depth child indices (canonical order, one per pruned
// level) to the underlying hardware object. It returns nil when the
// coordinate does not exist on this node — the "resource exists" half of
// the paper's availability check.
func (pt *PrunedTree) Lookup(coords []int) *hw.Object {
	pn := pt.root
	for _, idx := range coords {
		if idx < 0 || idx >= len(pn.children) {
			return nil
		}
		pn = pn.children[idx]
	}
	return pn.obj
}

// Widths returns, per pruned depth, the maximum child count of any pruned
// node at that depth on this node. The result is computed once and cached
// (the tree is immutable after construction); callers must not modify it.
func (pt *PrunedTree) Widths() []int {
	if pt.widths != nil {
		return pt.widths
	}
	w := make([]int, len(pt.levels))
	var walk func(pn *prunedNode, depth int)
	walk = func(pn *prunedNode, depth int) {
		if depth >= len(pt.levels) {
			return
		}
		if len(pn.children) > w[depth] {
			w[depth] = len(pn.children)
		}
		for _, c := range pn.children {
			walk(c, depth+1)
		}
	}
	walk(pt.root, 0)
	pt.widths = w
	return w
}

// MaximalTree is the union of the pruned per-node trees of a cluster
// (paper §IV-B): a regular tree described only by per-depth maximum widths,
// used purely to drive iteration. Coordinates that do not exist on a given
// node are skipped at lookup time.
type MaximalTree struct {
	levels []hw.Level    // intra-node levels, canonical order
	widths []int         // per-depth max width across all nodes
	trees  []*PrunedTree // per cluster node
}

// NewMaximalTree builds the maximal tree for a set of per-node topologies.
func NewMaximalTree(topos []*hw.Topology, levels []hw.Level) *MaximalTree {
	mt := &MaximalTree{levels: levels, widths: make([]int, len(levels))}
	for _, t := range topos {
		pt := NewPrunedTree(t, levels)
		mt.trees = append(mt.trees, pt)
		for d, w := range pt.Widths() {
			if w > mt.widths[d] {
				mt.widths[d] = w
			}
		}
	}
	return mt
}

// Width returns the iteration width at pruned depth d.
func (mt *MaximalTree) Width(d int) int { return mt.widths[d] }

// Lookup resolves coordinates on the node-th tree; nil if absent.
func (mt *MaximalTree) Lookup(node int, coords []int) *hw.Object {
	if node < 0 || node >= len(mt.trees) {
		return nil
	}
	return mt.trees[node].Lookup(coords)
}
