package netsim

import (
	"fmt"
	"strconv"
	"strings"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// Pricing is a Model compiled over one cluster: the single place a rank
// pair is priced. Inter-node pairs read the embedded Distances;
// intra-node pairs read a per-shape table of PU-pair lowest-common-ancestor
// levels and the model's IntraParams. Both halves hold exact latencies
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
	tabOf []int32 // node -> index into tabs
	tabs  []*lcaTable
}

// Pricing compiles the model for cluster c: the network's Distances over
// c's nodes and one LCA table per distinct node shape. Construction is
// O(nodes + shapes·PUs²) for the structured networks.
func (mo *Model) Pricing(c *cluster.Cluster) (*Pricing, error) {
	if c == nil || mo == nil {
		return nil, fmt.Errorf("netsim: pricing needs a model and a cluster")
	}
	dist, err := NewDistances(mo.Net, c.NumNodes())
	if err != nil {
		return nil, err
	}
	pr := &Pricing{Distances: dist, intra: mo.Intra, tabOf: make([]int32, c.NumNodes())}
	keys := map[string]int32{}
	for ni, nd := range c.Nodes {
		key := lcaKey(nd.Topo)
		id, ok := keys[key]
		if !ok {
			id = int32(len(pr.tabs))
			pr.tabs = append(pr.tabs, buildLCATable(nd.Topo))
			keys[key] = id
		}
		pr.tabOf[ni] = id
	}
	return pr, nil
}

// Locate resolves every rank of m to its endpoint: node index and the
// dense ordinal of its representative PU in that node's LCA table. A rank
// on a node outside the cluster, or on a PU its node lacks, is an error.
func (pr *Pricing) Locate(m *core.Map) (node, pu []int32, err error) {
	np := m.NumRanks()
	node, pu = make([]int32, np), make([]int32, np)
	for r := range m.Placements {
		p := &m.Placements[r]
		idx := pr.ordinal(p.Node, p.PU())
		if idx < 0 {
			return nil, nil, fmt.Errorf("netsim: rank %d claims PU %d on node %d, which the %d-node cluster lacks",
				r, p.PU(), p.Node, len(pr.tabOf))
		}
		node[r], pu[r] = int32(p.Node), idx
	}
	return node, pu, nil
}

// ordinal returns the dense ordinal of the PU with OS index pu on node,
// or -1 when the node or the PU does not exist.
//
//lama:hotpath
func (pr *Pricing) ordinal(node, pu int) int32 {
	if node < 0 || node >= len(pr.tabOf) {
		return -1
	}
	return pr.tabs[pr.tabOf[node]].lookup(pu)
}

// Link returns the latency (µs) and bandwidth (bytes/µs) of an exchange
// between endpoints (ni, pi) and (nj, pj). level is the two PUs' lowest
// common ancestor when they share a node; inter-node pairs report
// LevelMachine.
//
//lama:hotpath
func (pr *Pricing) Link(ni, pi, nj, pj int32) (lat, bw float64, level hw.Level) {
	if ni == nj {
		tab := pr.tabs[pr.tabOf[ni]]
		level = hw.Level(tab.level[pi*tab.n+pj])
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

// lcaTable is one node shape's PU-pair lowest-common-ancestor levels
// precomputed into a flat table, so pricing never calls
// Topology.CommonAncestorLevel (which allocates a map per call). Tables
// are shared between nodes whose tree structure and PU OS numbering are
// identical.
type lcaTable struct {
	n     int32
	osIdx []int32 // PU OS index -> dense ordinal, -1 when absent
	level []uint8 // ordinal pair i*n+j -> LCA level
}

//lama:hotpath
func (t *lcaTable) lookup(os int) int32 {
	if os < 0 || os >= len(t.osIdx) {
		return -1
	}
	return t.osIdx[os]
}

// lcaKey identifies topologies whose LCA tables are interchangeable:
// same tree structure (ShapeSig) and same PU OS numbering in tree order.
func lcaKey(t *hw.Topology) string {
	var sb strings.Builder
	sb.WriteString(t.ShapeSig())
	for _, pu := range t.Objects(hw.LevelPU) {
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(pu.OS))
	}
	return sb.String()
}

// buildLCATable walks every PU pair's ancestor chains once; equivalent
// to Topology.CommonAncestorLevel on each pair, table-ized.
func buildLCATable(t *hw.Topology) *lcaTable {
	pus := t.Objects(hw.LevelPU)
	n := len(pus)
	maxOS := 0
	for _, pu := range pus {
		if pu.OS > maxOS {
			maxOS = pu.OS
		}
	}
	tab := &lcaTable{n: int32(n), osIdx: make([]int32, maxOS+1), level: make([]uint8, n*n)}
	for i := range tab.osIdx {
		tab.osIdx[i] = -1
	}
	for i, pu := range pus {
		tab.osIdx[pu.OS] = int32(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				tab.level[i*n+j] = uint8(hw.LevelPU)
				continue
			}
			xa, xb := pus[i], pus[j]
			for xa != xb {
				if xa.Level >= xb.Level {
					xa = xa.Parent
				} else {
					xb = xb.Parent
				}
			}
			tab.level[i*n+j] = uint8(xa.Level)
		}
	}
	return tab
}
