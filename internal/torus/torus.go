// Package torus implements a BlueGene-style mapping (paper §II): cluster
// nodes are arranged in a 3-D torus and ranks are placed according to a
// permutation of the X, Y, Z network coordinates plus T, the processing
// unit within a node (e.g. "xyzt", "tzyx"). This is the related-work
// comparator the LAMA generalizes on the intra-node side; it is also the
// substrate for torus-network congestion experiments.
package torus

import (
	"fmt"
	"strings"

	"lama/internal/cluster"
	"lama/internal/core"
)

// Dims is the shape of the torus network.
type Dims struct {
	X, Y, Z int
}

// Size returns the number of torus nodes.
func (d Dims) Size() int { return d.X * d.Y * d.Z }

// Validate checks all dimensions are positive.
func (d Dims) Validate() error {
	if d.X < 1 || d.Y < 1 || d.Z < 1 {
		return fmt.Errorf("torus: invalid dims %dx%dx%d", d.X, d.Y, d.Z)
	}
	return nil
}

// Coord is a node's position in the torus.
type Coord struct {
	X, Y, Z int
}

// NodeIndex converts torus coordinates to the cluster node index
// (X varies fastest, matching BlueGene's default node numbering).
func (d Dims) NodeIndex(c Coord) int { return c.X + d.X*(c.Y+d.Y*c.Z) }

// CoordOf converts a cluster node index back to torus coordinates.
func (d Dims) CoordOf(node int) Coord {
	return Coord{X: node % d.X, Y: (node / d.X) % d.Y, Z: node / (d.X * d.Y)}
}

// HopDistance is the Manhattan distance on the torus (with wraparound
// links) between two nodes.
func (d Dims) HopDistance(a, b int) int {
	ca, cb := d.CoordOf(a), d.CoordOf(b)
	return axisDist(ca.X, cb.X, d.X) + axisDist(ca.Y, cb.Y, d.Y) + axisDist(ca.Z, cb.Z, d.Z)
}

func axisDist(a, b, size int) int {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if wrap := size - diff; wrap < diff {
		return wrap
	}
	return diff
}

// ParseOrder validates an order string: a permutation of the letters
// x, y, z, t (left-most varies fastest, as in the BlueGene literature).
func ParseOrder(order string) error {
	if len(order) != 4 {
		return fmt.Errorf("torus: order %q must have exactly 4 letters", order)
	}
	seen := map[rune]bool{}
	for _, r := range strings.ToLower(order) {
		switch r {
		case 'x', 'y', 'z', 't':
			if seen[r] {
				return fmt.Errorf("torus: order %q repeats %q", order, string(r))
			}
			seen[r] = true
		default:
			return fmt.Errorf("torus: order %q has unknown letter %q", order, string(r))
		}
	}
	return nil
}

// Orders lists all 24 XYZT permutations.
func Orders() []string {
	letters := []byte{'x', 'y', 'z', 't'}
	var out []string
	var build func(prefix []byte, rest []byte)
	build = func(prefix, rest []byte) {
		if len(rest) == 0 {
			out = append(out, string(prefix))
			return
		}
		for i := range rest {
			next := append(append([]byte{}, rest[:i]...), rest[i+1:]...)
			build(append(prefix, rest[i]), next)
		}
	}
	build(nil, letters)
	return out
}

// Map places np ranks on a cluster arranged as the given torus, iterating
// coordinates in the given order (left-most fastest). T indexes the usable
// PUs of a node. The cluster must have exactly dims.Size() nodes.
func Map(c *cluster.Cluster, dims Dims, order string, np int) (*core.Map, error) {
	if err := dims.Validate(); err != nil {
		return nil, err
	}
	if err := ParseOrder(order); err != nil {
		return nil, err
	}
	if c.NumNodes() != dims.Size() {
		return nil, fmt.Errorf("torus: cluster has %d nodes but torus is %dx%dx%d",
			c.NumNodes(), dims.X, dims.Y, dims.Z)
	}
	if np <= 0 {
		return nil, fmt.Errorf("torus: non-positive process count %d", np)
	}
	maxT, total := 0, 0
	for _, node := range c.Nodes {
		maxT = max(maxT, node.Topo.NumUsablePUs())
		total += node.Topo.NumUsablePUs()
	}
	if np > total {
		return nil, fmt.Errorf("torus: only %d of %d ranks placeable", total, np)
	}
	order = strings.ToLower(order)
	// widths and coord are indexed by a letter's position in order, and
	// x, y, z and t name the positions of the letters.
	var widths, coord [4]int
	x, y, z, t := strings.IndexByte(order, 'x'), strings.IndexByte(order, 'y'),
		strings.IndexByte(order, 'z'), strings.IndexByte(order, 't')
	widths[x], widths[y], widths[z], widths[t] = dims.X, dims.Y, dims.Z, maxT
	m, placed := core.NewPUMap(np), 0
	var iterate func(pos int) bool // returns true when np ranks placed
	iterate = func(pos int) bool {
		if pos < 0 {
			node := dims.NodeIndex(Coord{X: coord[x], Y: coord[y], Z: coord[z]})
			ups := c.Node(node).Topo.UsablePUs()
			if coord[t] >= len(ups) {
				return false // node has fewer PUs than maxT: skip
			}
			m.SetPU(placed, node, c.Node(node).Name, ups[coord[t]])
			placed++
			return placed == np
		}
		for v := 0; v < widths[pos]; v++ {
			coord[pos] = v
			if iterate(pos - 1) {
				return true
			}
		}
		return false
	}
	// Right-most letter is the outermost loop, mirroring the LAMA layout
	// convention and the BlueGene documentation. The walk visits every
	// usable PU once, so it places np <= total ranks.
	iterate(len(order) - 1)
	return m, nil
}
