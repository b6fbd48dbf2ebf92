package exper

import (
	"fmt"
	"time"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
)

func init() {
	register("E7", "§IV-B: heterogeneity and the maximal tree", runE7)
	register("E8", "§IV/§VI: mapping-time scalability", runE8)
}

// runE7 demonstrates the maximal-tree behaviour on a heterogeneous cluster
// with scheduler restrictions: coordinates missing on small nodes are
// skipped, off-lined resources are avoided, pruning renumbers merged
// levels, and every layout still produces a complete valid map.
func runE7(Options) ([]*metrics.Table, error) {
	big, _ := hw.Preset("nehalem-ep")    // 2s x 4c x 2t = 16 PUs
	small, _ := hw.Preset("bgp-node")    // 1s x 4c x 1t = 4 PUs
	boards, _ := hw.Preset("dual-board") // 2b x 2s x 2c x 2t = 16 PUs
	c := cluster.FromSpecs(big, small, boards, big)
	// Scheduler restriction: node3 loses its second socket.
	c.Node(3).Topo.Restrict(hw.CPUSetRange(0, 3))
	// OS restriction: one core of node0 off-lined.
	c.Node(0).Topo.SetAvailable(hw.LevelCore, 2, false)

	usable := c.TotalUsablePUs()
	t1 := metrics.NewTable("E7 / heterogeneous cluster under test",
		"node", "shape", "usable PUs")
	for _, n := range c.Nodes {
		t1.AddRow(n.Name, n.Topo.Summary(), metrics.I(n.Topo.NumUsablePUs()))
	}

	t2 := metrics.NewTable(fmt.Sprintf("E7 / per-layout completeness (np=%d = every usable PU)", usable),
		"layout", "ranks", "node0", "node1", "node2", "node3", "valid", "oversub")
	for _, layout := range []string{"scbnh", "csbnh", "ncsbh", "hcsbn", "nbsNL3L2L1ch"} {
		mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := mapper.Map(usable)
		if err != nil {
			return nil, fmt.Errorf("exper: E7 layout %s: %v", layout, err)
		}
		valid := "yes"
		if err := m.Validate(c); err != nil {
			valid = err.Error()
		}
		per := m.RanksByNode()
		t2.AddRow(layout, metrics.I(m.NumRanks()),
			metrics.I(len(per[0])), metrics.I(len(per[1])),
			metrics.I(len(per[2])), metrics.I(len(per[3])),
			valid, fmt.Sprint(m.Oversubscribed()))
	}

	// Pruning renumbering: mapping "scnh" onto the dual-board node
	// iterates 4 renumbered sockets (2 boards x 2 sockets).
	dc := cluster.FromSpecs(boards)
	mapper, err := core.NewMapper(dc, core.MustParseLayout("scnh"), core.Options{})
	if err != nil {
		return nil, err
	}
	m, err := mapper.Map(4)
	if err != nil {
		return nil, err
	}
	t3 := metrics.NewTable("E7 / board pruning renumbers sockets 0-3 (layout scnh, dual-board node)",
		"rank", "pruned socket index", "physical board", "physical socket-in-board")
	for i := range m.Placements {
		p := &m.Placements[i]
		board := p.Leaf.Ancestor(hw.LevelBoard)
		sock := p.Leaf.Ancestor(hw.LevelSocket)
		t3.AddRow(metrics.I(p.Rank), metrics.I(m.Coords(i)[hw.LevelSocket]),
			metrics.I(board.Logical), metrics.I(sock.Rank))
	}
	return []*metrics.Table{t1, t2, t3}, nil
}

// runE8 measures mapping time versus cluster size and rank count: the LAMA
// does constant work per visited coordinate, so time scales linearly in
// the swept resource space.
func runE8(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep") // 16 PUs
	sizes := []int{4, 16, 64, 256}
	if o.Full {
		sizes = append(sizes, 1024)
	}
	t := metrics.NewTable("E8 / mapping-time scalability (layout scbnh, np = 8 x nodes)",
		"nodes", "np", "map time (ms)", "us per rank")
	for _, nodes := range sizes {
		c := cluster.Homogeneous(nodes, sp)
		np := 8 * nodes
		mapper, err := core.NewMapper(c, core.MustParseLayout("scbnh"), core.Options{})
		if err != nil {
			return nil, err
		}
		// Warm up once, then time the best of three runs to damp noise.
		if _, err := mapper.Map(np); err != nil {
			return nil, err
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := mapper.Map(np); err != nil {
				return nil, err
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		t.AddRow(metrics.I(nodes), metrics.I(np),
			metrics.F(float64(best.Microseconds())/1000, 3),
			metrics.F(float64(best.Microseconds())/float64(np), 2))
	}
	return []*metrics.Table{t}, nil
}
