// Package netsim is a communication-cost simulator for mapped parallel
// jobs. It combines an intra-node model (cost by the topology level of the
// lowest common ancestor of two PUs) with four inter-node network models
// (flat, two-level fat-tree, dragonfly, 3-D torus with link congestion), and
// evaluates a traffic matrix against a mapping plan. The paper's
// motivation — placement changes communication cost (§I, §II) — is made
// measurable by this package.
package netsim

import (
	"fmt"
	"sort"

	"lama/internal/torus"
)

// Network models the cluster interconnect between node indices. Pricing
// (Model.Pricing, Model.Evaluate, Cost) supports exactly Flat, FatTree,
// Dragonfly and Torus3D, each through a closed-form distance class in
// Distances; any other implementation is rejected with an error naming it.
type Network interface {
	// Name identifies the model in reports.
	Name() string
	// Latency is the one-way latency in microseconds between two nodes.
	Latency(a, b int) float64
	// Bandwidth is the point-to-point bandwidth in bytes/µs between two
	// nodes.
	Bandwidth(a, b int) float64
	// Hops is the number of network links a message crosses.
	Hops(a, b int) int
}

// Flat is a full-crossbar network: every node pair is one hop at constant
// latency and bandwidth (an idealized non-blocking switch).
type Flat struct {
	// Lat is the node-to-node latency in µs.
	Lat float64
	// BW is the point-to-point bandwidth in bytes/µs.
	BW float64
}

// NewFlat returns a flat network with 2011-era InfiniBand-like defaults
// (1.5 µs, 3.2 GB/s).
func NewFlat() *Flat { return &Flat{Lat: 1.5, BW: 3200} }

// Name implements Network.
func (f *Flat) Name() string { return "flat" }

// Latency implements Network.
func (f *Flat) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	return f.Lat
}

// Bandwidth implements Network.
func (f *Flat) Bandwidth(a, b int) float64 { return f.BW }

// Hops implements Network.
func (f *Flat) Hops(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// FatTree is a two-level fat-tree: nodes attach to leaf switches of
// LeafSize ports; traffic within a leaf crosses 2 links, traffic between
// leaves crosses 4 (up to the core and back down).
type FatTree struct {
	// LeafSize is the number of nodes per leaf switch.
	LeafSize int
	// LinkLat is the per-link latency in µs.
	LinkLat float64
	// BW is the per-path bandwidth in bytes/µs.
	BW float64
	// Oversub is the uplink oversubscription factor (1 = non-blocking):
	// inter-leaf bandwidth is BW/Oversub.
	Oversub float64
}

// NewFatTree returns a fat-tree with the given leaf size and 2:1 uplink
// oversubscription.
func NewFatTree(leafSize int) *FatTree {
	return &FatTree{LeafSize: leafSize, LinkLat: 0.7, BW: 3200, Oversub: 2}
}

// Name implements Network.
func (t *FatTree) Name() string { return fmt.Sprintf("fat-tree(%d)", t.LeafSize) }

func (t *FatTree) leaf(n int) int { return n / t.LeafSize }

// Hops implements Network.
func (t *FatTree) Hops(a, b int) int {
	switch {
	case a == b:
		return 0
	case t.leaf(a) == t.leaf(b):
		return 2
	default:
		return 4
	}
}

// Latency implements Network.
func (t *FatTree) Latency(a, b int) float64 { return float64(t.Hops(a, b)) * t.LinkLat }

// Bandwidth implements Network.
func (t *FatTree) Bandwidth(a, b int) float64 {
	if t.leaf(a) == t.leaf(b) {
		return t.BW
	}
	ov := t.Oversub
	if ov < 1 {
		ov = 1
	}
	return t.BW / ov
}

// Torus3D is a 3-D torus network with dimension-ordered routing, the
// BlueGene-style interconnect of the paper's related work (§II).
type Torus3D struct {
	// Dims is the torus shape; the cluster's node i sits at Dims.CoordOf(i).
	Dims torus.Dims
	// LinkLat is the per-hop latency in µs.
	LinkLat float64
	// BW is the per-link bandwidth in bytes/µs.
	BW float64
}

// NewTorus3D returns a torus with BlueGene/P-like parameters.
func NewTorus3D(d torus.Dims) *Torus3D {
	return &Torus3D{Dims: d, LinkLat: 0.5, BW: 425}
}

// Name implements Network.
func (t *Torus3D) Name() string {
	return fmt.Sprintf("torus(%dx%dx%d)", t.Dims.X, t.Dims.Y, t.Dims.Z)
}

// Hops implements Network.
func (t *Torus3D) Hops(a, b int) int { return t.Dims.HopDistance(a, b) }

// Latency implements Network.
func (t *Torus3D) Latency(a, b int) float64 { return float64(t.Hops(a, b)) * t.LinkLat }

// Bandwidth implements Network.
func (t *Torus3D) Bandwidth(a, b int) float64 { return t.BW }

// link identifies one directed torus link: the unit step from a node along
// one axis.
type link struct {
	node int
	axis int // 0=x 1=y 2=z
	dir  int // +1 or -1
}

// Route returns the dimension-ordered (X, then Y, then Z, shortest
// direction) sequence of links from node a to node b.
func (t *Torus3D) Route(a, b int) []link {
	var links []link
	ca, cb := t.Dims.CoordOf(a), t.Dims.CoordOf(b)
	cur := ca
	sizes := [3]int{t.Dims.X, t.Dims.Y, t.Dims.Z}
	get := func(c torus.Coord, axis int) int {
		switch axis {
		case 0:
			return c.X
		case 1:
			return c.Y
		default:
			return c.Z
		}
	}
	set := func(c *torus.Coord, axis, v int) {
		switch axis {
		case 0:
			c.X = v
		case 1:
			c.Y = v
		default:
			c.Z = v
		}
	}
	for axis := 0; axis < 3; axis++ {
		size := sizes[axis]
		from, to := get(cur, axis), get(cb, axis)
		if from == to {
			continue
		}
		// Shortest direction with wraparound; ties go positive.
		fwd := ((to - from) + size) % size
		dir := 1
		steps := fwd
		if fwd > size-fwd {
			dir = -1
			steps = size - fwd
		}
		for s := 0; s < steps; s++ {
			links = append(links, link{node: t.Dims.NodeIndex(cur), axis: axis, dir: dir})
			set(&cur, axis, ((get(cur, axis)+dir)+size)%size)
		}
	}
	return links
}

// LinkLoads accumulates per-link byte loads for a set of node-to-node
// flows under dimension-ordered routing and returns the maximum and mean
// link load — the congestion measure used by the torus experiments.
// Flows are routed in ascending node-pair order and loads summed in link
// order, so the float sums, and hence the result, are the same on every
// call.
func (t *Torus3D) LinkLoads(flows map[[2]int]float64) (maxLoad, meanLoad float64) {
	pairs := make([][2]int, 0, len(flows))
	for pair := range flows {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var loads []float64 // (node, axis, direction) -> bytes
	for _, pair := range pairs {
		bytes := flows[pair]
		if pair[0] == pair[1] || bytes <= 0 {
			continue
		}
		for _, l := range t.Route(pair[0], pair[1]) {
			k := (l.node*3+l.axis)*2 + (l.dir+1)/2
			if k >= len(loads) {
				loads = append(loads, make([]float64, k+1-len(loads))...)
			}
			loads[k] += bytes
		}
	}
	total, used := 0.0, 0
	for _, v := range loads {
		if v > 0 {
			total += v
			used++
			if v > maxLoad {
				maxLoad = v
			}
		}
	}
	if used == 0 {
		return 0, 0
	}
	return maxLoad, total / float64(used)
}

// RouteKeys returns stable string identifiers for the links on the
// dimension-ordered route from a to b, for external per-link accounting.
func (t *Torus3D) RouteKeys(a, b int) []string {
	route := t.Route(a, b)
	keys := make([]string, len(route))
	for i, l := range route {
		keys[i] = fmt.Sprintf("%d:%d:%d", l.node, l.axis, l.dir)
	}
	return keys
}
