package metrics

import (
	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
)

// MapSummary aggregates structural qualities of a mapping plan,
// independent of any traffic pattern.
type MapSummary struct {
	// Ranks is the number of placed ranks.
	Ranks int
	// NodesUsed is the number of distinct nodes hosting at least one rank.
	NodesUsed int
	// MaxPerNode and MinPerNode describe the node-level balance (MinPerNode
	// counts only used nodes).
	MaxPerNode, MinPerNode int
	// SocketsUsed is the number of distinct (node, socket) pairs used.
	SocketsUsed int
	// Oversubscribed reports PU sharing.
	Oversubscribed bool
	// AvgNeighborLevel is the mean LCA depth of consecutive ranks placed
	// on the same node (higher = closer); 0 when no such pairs exist.
	AvgNeighborLevel float64
}

// Summarize computes a MapSummary.
func Summarize(c *cluster.Cluster, m *core.Map) MapSummary {
	s := MapSummary{Ranks: m.NumRanks(), Oversubscribed: m.Oversubscribed()}
	perNode := m.RanksByNode()
	s.NodesUsed = len(perNode)
	// Used nodes host at least one rank, so 0 is free as the "no nodes yet"
	// state and an empty map naturally reports MinPerNode == 0 (no
	// NumRanks+1 sentinel to leak out).
	for _, ranks := range perNode {
		if len(ranks) > s.MaxPerNode {
			s.MaxPerNode = len(ranks)
		}
		if s.MinPerNode == 0 || len(ranks) < s.MinPerNode {
			s.MinPerNode = len(ranks)
		}
	}
	sockets := map[[2]int]bool{}
	for i := range m.Placements {
		p := &m.Placements[i]
		if p.Leaf != nil {
			if sock := p.Leaf.Ancestor(hw.LevelSocket); sock != nil {
				sockets[[2]int{p.Node, sock.Logical}] = true
			}
		}
	}
	s.SocketsUsed = len(sockets)
	s.AvgNeighborLevel = neighborLocality(c, m)
	return s
}

// neighborLocality is the mean LCA depth of consecutive ranks placed on
// the same node, 0 when no such pairs exist. A PU the node lacks meets
// any other at LevelMachine. Depths and pairs are summed as integers, so
// the value is exact.
func neighborLocality(c *cluster.Cluster, m *core.Map) float64 {
	depth, pairs := 0, 0
	for i := 1; i < m.NumRanks(); i++ {
		a, b := &m.Placements[i-1], &m.Placements[i]
		if a.Node != b.Node {
			continue
		}
		h := c.Node(a.Node).Topo.Hierarchy()
		level := hw.LevelMachine
		if pa, pb := h.Ordinal(a.PU()), h.Ordinal(b.PU()); pa >= 0 && pb >= 0 {
			level = h.LCALevel(pa, pb)
		}
		depth += level.Depth()
		pairs++
	}
	if pairs == 0 {
		return 0
	}
	return float64(depth) / float64(pairs)
}

// Record publishes the summary into an obs registry as lama_map_* gauges,
// making every Summarize call a metrics producer: whatever exposition the
// CLI chose (Prometheus text, runreport JSON) picks the structural
// qualities up alongside the engine's own counters. A nil registry is a
// no-op.
func (s MapSummary) Record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("lama_map_ranks").Set(float64(s.Ranks))
	reg.Gauge("lama_map_nodes_used").Set(float64(s.NodesUsed))
	reg.Gauge("lama_map_max_per_node").Set(float64(s.MaxPerNode))
	reg.Gauge("lama_map_min_per_node").Set(float64(s.MinPerNode))
	reg.Gauge("lama_map_sockets_used").Set(float64(s.SocketsUsed))
	reg.Gauge("lama_map_avg_neighbor_level").Set(s.AvgNeighborLevel)
	oversub := 0.0
	if s.Oversubscribed {
		oversub = 1
	}
	reg.Gauge("lama_map_oversubscribed").Set(oversub)
}
