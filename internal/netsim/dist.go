package netsim

import (
	"fmt"
	"math"
)

// Distances is the flat, cache-friendly inter-node distance provider: a
// Network's Latency/Bandwidth/Hops surface precomputed into int32 hop
// classes and per-class cost arrays, in the style of core's prunedShape.
// Hot placement loops ask for a pair's class with pure integer
// arithmetic — no interface dispatch, no allocation — and index the
// per-class latency / bandwidth / hop arrays directly. The per-class
// values are the exact Network.Latency and Network.Bandwidth results, so
// a price computed from them equals the one the Network spec gives bit
// for bit. Distances is the inter-node half of a Pricing.
//
// Class 0 is always the self pair (zero cost). The structured models map
// to tiny class sets: Flat has {self, other}; FatTree and Dragonfly have
// {self, intra-partition, inter-partition} keyed by a per-node partition
// id; Torus3D's class is the wrap-around Manhattan hop distance computed
// from packed per-node coordinates. These four are the only networks
// with a class model; any other Network implementation is rejected.
type Distances struct {
	n    int
	kind distKind

	// Per-class cost tables, indexed by the value Class returns.
	lat  []float64 // one-way latency, µs
	bw   []float64 // bytes/µs, exactly Network.Bandwidth; +Inf for self
	hops []int32

	part  []int32 // kindPartition: node -> partition id
	coord []int32 // kindTorus: packed x,y,z per node
	dims  [3]int32
}

type distKind uint8

const (
	distUniform distKind = iota
	distPartition
	distTorus
)

// selfBW is the self class's bandwidth: a node talking to itself moves
// bytes for free, so bytes/selfBW is 0.
var selfBW = math.Inf(1)

// NewDistances precomputes the distance provider for numNodes nodes of
// the given network in O(n). Only Flat, FatTree, Dragonfly and Torus3D
// have a class model; any other Network is an error naming it.
func NewDistances(net Network, numNodes int) (*Distances, error) {
	if net == nil {
		return nil, fmt.Errorf("netsim: distances need a network model")
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("netsim: distances need a positive node count, got %d", numNodes)
	}
	d := &Distances{n: numNodes}
	switch nt := net.(type) {
	case *Flat:
		d.kind = distUniform
		d.lat = []float64{0, nt.Lat}
		d.bw = []float64{selfBW, nt.BW}
		d.hops = []int32{0, 1}
	case *FatTree:
		if nt.LeafSize <= 0 {
			return nil, fmt.Errorf("netsim: fat-tree leaf size %d", nt.LeafSize)
		}
		ov := nt.Oversub
		if ov < 1 {
			ov = 1
		}
		d.kind = distPartition
		d.part = make([]int32, numNodes)
		for i := 0; i < numNodes; i++ {
			d.part[i] = int32(nt.leaf(i))
		}
		d.lat = []float64{0, 2 * nt.LinkLat, 4 * nt.LinkLat}
		d.bw = []float64{selfBW, nt.BW, nt.BW / ov}
		d.hops = []int32{0, 2, 4}
	case *Dragonfly:
		taper := nt.Taper
		if taper < 1 {
			taper = 1
		}
		d.kind = distPartition
		d.part = make([]int32, numNodes)
		for i := 0; i < numNodes; i++ {
			d.part[i] = int32(nt.group(i))
		}
		d.lat = []float64{0, nt.LocalLat, 2*nt.LocalLat + nt.GlobalLat}
		d.bw = []float64{selfBW, nt.BW, nt.BW / taper}
		d.hops = []int32{0, 1, 3}
	case *Torus3D:
		if err := nt.Dims.Validate(); err != nil {
			return nil, err
		}
		d.kind = distTorus
		d.dims = [3]int32{int32(nt.Dims.X), int32(nt.Dims.Y), int32(nt.Dims.Z)}
		d.coord = make([]int32, 3*numNodes)
		for i := 0; i < numNodes; i++ {
			c := nt.Dims.CoordOf(i)
			d.coord[3*i+0] = int32(c.X)
			d.coord[3*i+1] = int32(c.Y)
			d.coord[3*i+2] = int32(c.Z)
		}
		maxHop := d.torusMaxHop()
		d.lat = make([]float64, maxHop+1)
		d.bw = make([]float64, maxHop+1)
		d.hops = make([]int32, maxHop+1)
		for h := 0; h <= maxHop; h++ {
			d.lat[h] = float64(h) * nt.LinkLat
			d.bw[h] = nt.BW
			d.hops[h] = int32(h)
		}
		d.bw[0] = selfBW
	default:
		return nil, fmt.Errorf("netsim: no distance model for network %s (%T); pricing supports flat, fat-tree, dragonfly and torus",
			net.Name(), net)
	}
	return d, nil
}

// torusMaxHop bounds the torus hop-class count: the largest per-axis
// wrap distance over the coordinate values actually present, summed over
// axes. Distinct values per axis are few (at most the axis size for
// in-range clusters), so the pairwise scan is cheap.
func (d *Distances) torusMaxHop() int {
	total := 0
	for axis := 0; axis < 3; axis++ {
		var vals []int32
		for i := 0; i < d.n; i++ {
			v := d.coord[3*i+axis]
			seen := false
			for _, u := range vals {
				if u == v {
					seen = true
					break
				}
			}
			if !seen {
				vals = append(vals, v)
			}
		}
		max := int32(0)
		for x, a := range vals {
			for _, b := range vals[x+1:] {
				if h := axisDist32(a, b, d.dims[axis]); h > max {
					max = h
				}
			}
		}
		total += int(max)
	}
	return total
}

// axisDist32 is torus.axisDist over int32: wrap-around distance along one
// axis.
//
//lama:hotpath
func axisDist32(a, b, size int32) int32 {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if wrap := size - diff; wrap < diff && wrap >= 0 {
		return wrap
	}
	return diff
}

// Class returns the distance class of a node pair. Class 0 is the self
// pair. Out-of-range nodes panic (hot path; validate at build time).
//
//lama:hotpath
func (d *Distances) Class(a, b int) int32 {
	if a == b {
		return 0
	}
	switch d.kind {
	case distUniform:
		return 1
	case distPartition:
		if d.part[a] == d.part[b] {
			return 1
		}
		return 2
	default: // distTorus
		return axisDist32(d.coord[3*a], d.coord[3*b], d.dims[0]) +
			axisDist32(d.coord[3*a+1], d.coord[3*b+1], d.dims[1]) +
			axisDist32(d.coord[3*a+2], d.coord[3*b+2], d.dims[2])
	}
}

// Hops returns the link count between two nodes.
//
//lama:hotpath
func (d *Distances) Hops(a, b int) int32 { return d.hops[d.Class(a, b)] }
