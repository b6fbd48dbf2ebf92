package netsim

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
)

// IntraParams is the intra-node cost model: the latency (µs) and bandwidth
// (bytes/µs) of an exchange whose two PUs have their lowest common
// ancestor at a given level. Deeper LCAs (shared caches) are faster.
type IntraParams struct {
	Lat [hw.NumLevels]float64
	BW  [hw.NumLevels]float64
}

// DefaultIntra returns parameters loosely calibrated to a 2011-era NUMA
// server: shared-cache communication is several times cheaper than
// cross-socket, which in turn beats nothing but the network.
func DefaultIntra() IntraParams {
	var p IntraParams
	set := func(l hw.Level, lat, bw float64) {
		p.Lat[l] = lat
		p.BW[l] = bw
	}
	set(hw.LevelPU, 0.05, 40000)     // same PU (self-send buffers)
	set(hw.LevelCore, 0.08, 30000)   // sibling hardware threads
	set(hw.LevelL1, 0.10, 28000)     // shared L1
	set(hw.LevelL2, 0.15, 24000)     // shared L2
	set(hw.LevelL3, 0.30, 18000)     // shared L3
	set(hw.LevelNUMA, 0.45, 10000)   // same NUMA domain
	set(hw.LevelSocket, 0.60, 8000)  // same socket, cross NUMA
	set(hw.LevelBoard, 0.90, 5000)   // cross socket
	set(hw.LevelMachine, 1.20, 4000) // cross board
	return p
}

// Model evaluates communication costs for mapped jobs.
type Model struct {
	Intra IntraParams
	Net   Network
}

// NewModel builds a model with default intra-node parameters.
func NewModel(net Network) *Model {
	return &Model{Intra: DefaultIntra(), Net: net}
}

// Report summarizes the communication cost of one traffic matrix under
// one mapping.
type Report struct {
	// TotalTime is the sum over communicating pairs of latency +
	// bytes/bandwidth, in µs (a volume-weighted cost, not a schedule).
	TotalTime float64
	// MaxRankTime is the largest per-rank send+receive time, a proxy for
	// the application's critical path.
	MaxRankTime float64
	// IntraBytes and InterBytes split traffic by node locality.
	IntraBytes float64
	InterBytes float64
	// HopBytes is the classic Σ bytes × network hops metric over
	// inter-node traffic.
	HopBytes float64
	// AvgHops is HopBytes / InterBytes (0 when all traffic is local).
	AvgHops float64
	// MaxLinkLoad and MeanLinkLoad are per-link congestion figures for
	// networks that model links (torus); zero otherwise.
	MaxLinkLoad  float64
	MeanLinkLoad float64
}

// Evaluate computes the full report for a traffic matrix under a mapping,
// visiting communicating pairs only, in Each order. The matrix rank count
// must match the map's, and every rank must sit on a cluster node, on a
// PU that node has. Pairs are priced by the model's Pricing for c, the
// same edges Cost sums, so TotalTime equals Cost.J exactly.
func (mo *Model) Evaluate(c *cluster.Cluster, m *core.Map, tm *commpat.Matrix) (*Report, error) {
	if tm.Ranks() != m.NumRanks() {
		return nil, fmt.Errorf("netsim: traffic has %d ranks, map has %d", tm.Ranks(), m.NumRanks())
	}
	pr, err := mo.Pricing(c)
	if err != nil {
		return nil, err
	}
	node, pu, err := pr.Locate(m)
	if err != nil {
		return nil, err
	}
	t3, isTorus := mo.Net.(*Torus3D)
	var flows map[[2]int]float64 // node pair -> bytes, for torus link loads
	if isTorus {
		flows = map[[2]int]float64{}
	}
	rep := &Report{}
	perRank := make([]float64, m.NumRanks())
	tm.Each(func(i, j int, bytes float64) {
		ni, nj := node[i], node[j]
		cost := pr.Edge(ni, pu[i], nj, pu[j], bytes)
		rep.TotalTime += cost
		perRank[i] += cost
		perRank[j] += cost
		if ni == nj {
			rep.IntraBytes += bytes
			return
		}
		rep.InterBytes += bytes
		rep.HopBytes += bytes * float64(pr.Hops(int(ni), int(nj)))
		if isTorus {
			flows[[2]int{int(ni), int(nj)}] += bytes
		}
	})
	for _, t := range perRank {
		if t > rep.MaxRankTime {
			rep.MaxRankTime = t
		}
	}
	if rep.InterBytes > 0 {
		rep.AvgHops = rep.HopBytes / rep.InterBytes
	}
	if isTorus {
		rep.MaxLinkLoad, rep.MeanLinkLoad = t3.LinkLoads(flows)
	}
	return rep, nil
}
