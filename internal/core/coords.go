package core

import (
	"fmt"
	"strings"

	"lama/internal/hw"
)

// CoordVector records one iteration coordinate per hardware level, indexed
// directly by hw.Level. Levels that are not part of the layout hold -1.
// A fixed-size value type needs no allocation and no hashing, which
// matters in the traced mapping loop where one is produced per visited
// coordinate. Indexing with a level (m.Coords(r)[hw.LevelSocket]) reads
// that level's coordinate, -1 when absent.
type CoordVector [hw.NumLevels]int

// NoCoords returns a vector with every level marked absent.
func NoCoords() CoordVector {
	var cv CoordVector
	for i := range cv {
		cv[i] = -1
	}
	return cv
}

// String renders the present coordinates in canonical level order, e.g.
// "n=1 s=0 c=2".
func (cv CoordVector) String() string {
	var sb strings.Builder
	for _, l := range hw.Levels {
		if cv[l] >= 0 {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%d", l.Abbrev(), cv[l])
		}
	}
	return sb.String()
}

// Coords returns rank r's iteration coordinates, the ones the mapping
// iteration visited when it placed the rank, derived from its node and
// leaf rather than stored. The machine coordinate is the node index. Each
// intra-node layout level's is the position of the leaf's ancestor at
// that level among that level's objects under the previous level's
// ancestor (or the node's root): the pruned-tree renumbering of §IV-B,
// which PrunedTree.Lookup inverts. A map with no layout (baseline,
// treematch, torus, rankfile) has none and gets NoCoords(); a nil Leaf
// leaves the intra-node levels at -1.
//
//lama:coldpath walks the rank's node tree once per layout level; for rendering and encoding, never a request path
func (m *Map) Coords(r int) CoordVector {
	cv := NoCoords()
	p := &m.Placements[r]
	if m.Layout.Contains(hw.LevelMachine) {
		cv[hw.LevelMachine] = p.Node
	}
	if p.Leaf == nil {
		return cv
	}
	parent := p.Leaf.Ancestor(hw.LevelMachine)
	var peers []*hw.Object
	for _, l := range m.Layout.IntraNode() {
		obj := p.Leaf.Ancestor(l)
		if obj == nil {
			break
		}
		peers = appendDescendantsAt(peers[:0], parent, l)
		for i, o := range peers {
			if o == obj {
				cv[l] = i
				break
			}
		}
		parent = obj
	}
	return cv
}
