package netsim

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// Pricing is a Model compiled over one cluster: the single place a rank
// pair is priced. Inter-node pairs read the embedded Distances;
// intra-node pairs read the level where the two PUs meet from the node's
// hw.Hierarchy, and the model's IntraParams. Both halves hold exact latencies
// and bandwidths, and Edge prices every exchange as lat + bytes/bw, so
// Model.Evaluate, Cost, and the passes and simulators built on them
// (netorder, coll, appsim, msgsim) agree bit for bit. A Pricing is immutable once built
// and may be shared by any number of evaluators.
//
// Endpoints are (node index, dense PU ordinal) pairs; Locate turns a
// map's placements into them. The virtual Network methods remain the
// specification Distances compiles and the oracle the tests price
// against.
type Pricing struct {
	*Distances

	intra IntraParams
	hier  []*hw.Hierarchy // by node
}

// Pricing compiles the model for cluster c: the network's Distances over
// c's nodes and each node's hierarchy table, captured when the Pricing is
// built. Construction is O(nodes) for the structured networks and
// allocates the same whatever the node count.
func (mo *Model) Pricing(c *cluster.Cluster) (*Pricing, error) {
	if c == nil || mo == nil {
		return nil, fmt.Errorf("netsim: pricing needs a model and a cluster")
	}
	dist, err := NewDistances(mo.Net, c.NumNodes())
	if err != nil {
		return nil, err
	}
	pr := &Pricing{Distances: dist, intra: mo.Intra, hier: make([]*hw.Hierarchy, c.NumNodes())}
	for ni, nd := range c.Nodes {
		pr.hier[ni] = nd.Topo.Hierarchy()
	}
	return pr, nil
}

// Locate resolves every rank of m to its endpoint: node index and the
// logical index of its representative PU on that node. A rank
// on a node outside the cluster, or on a PU its node lacks, is an error.
func (pr *Pricing) Locate(m *core.Map) (node, pu []int32, err error) {
	np := m.NumRanks()
	node, pu = make([]int32, np), make([]int32, np)
	for r := range m.Placements {
		p := &m.Placements[r]
		idx := pr.ordinal(p.Node, p.PU())
		if idx < 0 {
			return nil, nil, fmt.Errorf("netsim: rank %d claims PU %d on node %d, which the %d-node cluster lacks",
				r, p.PU(), p.Node, len(pr.hier))
		}
		node[r], pu[r] = int32(p.Node), idx
	}
	return node, pu, nil
}

// ordinal returns the logical index of the PU with OS index pu on node,
// or -1 when the node or the PU does not exist.
//
//lama:hotpath
func (pr *Pricing) ordinal(node, pu int) int32 {
	if node < 0 || node >= len(pr.hier) {
		return -1
	}
	return int32(pr.hier[node].Ordinal(pu))
}

// Link returns the latency (µs) and bandwidth (bytes/µs) of an exchange
// between endpoints (ni, pi) and (nj, pj). level is the two PUs' lowest
// common ancestor when they share a node; inter-node pairs report
// LevelMachine.
//
//lama:hotpath
func (pr *Pricing) Link(ni, pi, nj, pj int32) (lat, bw float64, level hw.Level) {
	if ni == nj {
		level = pr.hier[ni].LCALevel(int(pi), int(pj))
		return pr.intra.Lat[level], pr.intra.BW[level], level
	}
	cl := pr.Class(int(ni), int(nj))
	return pr.lat[cl], pr.bw[cl], hw.LevelMachine
}

// Edge prices one directed exchange of bytes between two endpoints:
// latency + bytes/bandwidth, the one pricing formula in netsim.
//
//lama:hotpath
func (pr *Pricing) Edge(ni, pi, nj, pj int32, bytes float64) float64 {
	lat, bw, _ := pr.Link(ni, pi, nj, pj)
	return lat + bytes/bw
}
