package netsim

import (
	"math"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/torus"
)

func fig2Cluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	return cluster.Homogeneous(nodes, sp)
}

func mapJob(t *testing.T, c *cluster.Cluster, layout string, np int) *core.Map {
	t.Helper()
	m, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestFlatNetwork(t *testing.T) {
	n := NewFlat()
	if n.Name() != "flat" {
		t.Fatal("name")
	}
	if n.Latency(0, 0) != 0 || n.Hops(0, 0) != 0 {
		t.Fatal("self traffic should be free")
	}
	if n.Latency(0, 5) != n.Latency(3, 9) || n.Hops(0, 5) != 1 {
		t.Fatal("flat must be uniform")
	}
	if n.Bandwidth(0, 1) <= 0 {
		t.Fatal("bandwidth")
	}
}

func TestFatTree(t *testing.T) {
	ft := NewFatTree(4)
	if ft.Hops(0, 0) != 0 || ft.Hops(0, 3) != 2 || ft.Hops(0, 4) != 4 {
		t.Fatalf("hops: %d %d %d", ft.Hops(0, 0), ft.Hops(0, 3), ft.Hops(0, 4))
	}
	if ft.Latency(0, 3) >= ft.Latency(0, 4) {
		t.Fatal("inter-leaf latency should exceed intra-leaf")
	}
	if ft.Bandwidth(0, 3) <= ft.Bandwidth(0, 4) {
		t.Fatal("oversubscription should reduce inter-leaf bandwidth")
	}
	if ft.Name() == "" {
		t.Fatal("name")
	}
	// Oversub < 1 is clamped.
	ft2 := &FatTree{LeafSize: 2, LinkLat: 1, BW: 100, Oversub: 0}
	if ft2.Bandwidth(0, 3) != 100 {
		t.Fatal("oversub clamp")
	}
}

func TestTorusNetworkAndRouting(t *testing.T) {
	d := torus.Dims{X: 4, Y: 4, Z: 2}
	tn := NewTorus3D(d)
	if tn.Hops(0, 0) != 0 {
		t.Fatal("self hops")
	}
	a := d.NodeIndex(torus.Coord{X: 0, Y: 0, Z: 0})
	b := d.NodeIndex(torus.Coord{X: 3, Y: 2, Z: 1})
	// Wraparound x: 1 hop; y: 2 hops; z: 1 hop.
	if tn.Hops(a, b) != 4 {
		t.Fatalf("hops = %d, want 4", tn.Hops(a, b))
	}
	route := tn.Route(a, b)
	if len(route) != 4 {
		t.Fatalf("route length = %d, want 4", len(route))
	}
	// Dimension order: x link(s) first, then y, then z.
	if route[0].axis != 0 || route[1].axis != 1 || route[3].axis != 2 {
		t.Fatalf("route not dimension-ordered: %+v", route)
	}
	// Wraparound direction: x goes negative (0 -> 3 is one hop backwards).
	if route[0].dir != -1 {
		t.Fatalf("x direction = %d, want -1", route[0].dir)
	}
	if got := tn.Route(a, a); len(got) != 0 {
		t.Fatal("self route should be empty")
	}
	if tn.Latency(a, b) != 4*tn.LinkLat {
		t.Fatal("latency per hop")
	}
}

func TestTorusLinkLoads(t *testing.T) {
	d := torus.Dims{X: 4, Y: 1, Z: 1}
	tn := NewTorus3D(d)
	// Two flows crossing the same link 1->2: 0->2 (via 1) and 1->2.
	flows := map[[2]int]float64{
		{0, 2}: 100,
		{1, 2}: 50,
	}
	maxLoad, meanLoad := tn.LinkLoads(flows)
	if maxLoad != 150 {
		t.Fatalf("max link load = %v, want 150 (shared 1->2 link)", maxLoad)
	}
	if meanLoad <= 0 || meanLoad > maxLoad {
		t.Fatalf("mean = %v", meanLoad)
	}
	if mx, mn := tn.LinkLoads(nil); mx != 0 || mn != 0 {
		t.Fatal("empty flows")
	}
	// Self flows ignored.
	if mx, _ := tn.LinkLoads(map[[2]int]float64{{2, 2}: 10}); mx != 0 {
		t.Fatal("self flow routed")
	}
}

// TestTorusLinkLoadsRepeatable: the loads are float sums, so they are
// reproducible only if flows are visited in a fixed order; the same flows
// must give bit-identical figures on every call.
func TestTorusLinkLoadsRepeatable(t *testing.T) {
	d := torus.Dims{X: 4, Y: 4, Z: 4}
	tn := NewTorus3D(d)
	flows := map[[2]int]float64{}
	for a := 0; a < d.Size(); a++ {
		for b := 0; b < d.Size(); b++ {
			if a != b {
				flows[[2]int{a, b}] = 1000 + 0.1*float64(a*d.Size()+b)
			}
		}
	}
	wantMax, wantMean := tn.LinkLoads(flows)
	for i := 0; i < 50; i++ {
		if mx, mn := tn.LinkLoads(flows); mx != wantMax || mn != wantMean {
			t.Fatalf("call %d: (%v, %v), first call (%v, %v)", i, mx, mn, wantMax, wantMean)
		}
	}
}

func TestDefaultIntraMonotone(t *testing.T) {
	p := DefaultIntra()
	// Deeper LCA (closer PUs) must be at least as fast in both latency
	// and bandwidth.
	for l := hw.LevelBoard; l <= hw.LevelPU; l++ {
		if p.Lat[l] > p.Lat[l-1] {
			t.Fatalf("latency not monotone at %s", l)
		}
		if p.BW[l] < p.BW[l-1] {
			t.Fatalf("bandwidth not monotone at %s", l)
		}
	}
}

func TestPairCostLocality(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mapJob(t, c, "csbnh", 24) // pack
	pr := mustPricing(t, NewModel(NewFlat()), c)
	node, pu, err := pr.Locate(m)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(a, b int) float64 { return pr.Edge(node[a], pu[a], node[b], pu[b], 1000) }
	// csbnh: rank 0 is PU0 (core 0) and rank 1 PU2 (core 1), the same
	// socket; rank 12 (the h=1 pass) is PU1, the same core as rank 0.
	sameCore, sameSocket, crossSocket, crossNode := cost(0, 12), cost(0, 1), cost(0, 3), cost(0, 6)
	if !(sameCore < sameSocket && sameSocket < crossSocket && crossSocket < crossNode) {
		t.Fatalf("locality ordering violated: %v %v %v %v",
			sameCore, sameSocket, crossSocket, crossNode)
	}
}

// lcaOracle climbs two PUs' ancestor chains to the object where they
// meet and returns its level.
func lcaOracle(a, b *hw.Object) hw.Level {
	for a != b {
		if a.Level >= b.Level {
			a = a.Parent
		} else {
			b = b.Parent
		}
	}
	return a.Level
}

// irregularNode decodes a node that omits levels and has ragged widths,
// sparse PU OS indices and a PU with no core above it.
func irregularNode(t *testing.T) *cluster.Node {
	t.Helper()
	topo := &hw.Topology{}
	if err := topo.UnmarshalJSON([]byte(`{"level":"machine","children":[
		{"level":"socket","children":[
			{"level":"core","children":[{"level":"pu","os":7},{"level":"pu","os":2},{"level":"pu","os":11}]},
			{"level":"l2","children":[{"level":"core","children":[{"level":"pu","os":0}]}]},
			{"level":"pu","os":5}]},
		{"level":"numa","children":[{"level":"core","children":[{"level":"pu","os":3},{"level":"pu","os":9}]}]}]}`)); err != nil {
		t.Fatal(err)
	}
	return &cluster.Node{Name: "irregular", Topo: topo}
}

// TestLCATablesMatchTopology pins the only intra-node pricing: for every
// PU pair of every node, the priced level equals the ancestor-chain
// walk, on homogeneous, heterogeneous, partially failed and decoded
// irregular topologies.
func TestLCATablesMatchTopology(t *testing.T) {
	fig2, _ := hw.Preset("fig2")
	neh, _ := hw.Preset("nehalem-ep")
	failed := cluster.Homogeneous(3, neh)
	if failed.Node(1).Topo.Offline(hw.NewCPUSet(0, 3, 5, 8)) == 0 {
		t.Fatal("Offline changed nothing")
	}
	irregular := cluster.Homogeneous(1, fig2)
	irregular.Nodes = append(irregular.Nodes, irregularNode(t))
	for name, c := range map[string]*cluster.Cluster{
		"fig2":       cluster.Homogeneous(2, fig2),
		"nehalem-ep": cluster.Homogeneous(2, neh),
		"hetero":     cluster.FromSpecs(fig2, neh, fig2),
		"failed-pus": failed,
		"irregular":  irregular,
	} {
		pr := mustPricing(t, NewModel(NewFlat()), c)
		for ni, nd := range c.Nodes {
			pus := nd.Topo.Objects(hw.LevelPU)
			for _, a := range pus {
				for _, b := range pus {
					pa, pb := pr.ordinal(ni, a.OS), pr.ordinal(ni, b.OS)
					if pa < 0 || pb < 0 {
						t.Fatalf("%s node %d: PU %d or %d not in the table", name, ni, a.OS, b.OS)
					}
					_, _, got := pr.Link(int32(ni), pa, int32(ni), pb)
					if want := lcaOracle(a, b); got != want {
						t.Fatalf("%s node %d PUs (%d,%d): level %s, want %s", name, ni, a.OS, b.OS, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluateRejectsBadPlacement: a rank on a node the cluster lacks,
// or on a PU its node lacks, is an error, not a panic.
func TestEvaluateRejectsBadPlacement(t *testing.T) {
	c := fig2Cluster(t, 2)
	mo := NewModel(NewFlat())
	tm := commpat.Ring(24, 1000)
	for name, mutate := range map[string]func(*core.Placement){
		"node past the end": func(p *core.Placement) { p.Node = 7 },
		"negative node":     func(p *core.Placement) { p.Node = -1 },
		"missing PU":        func(p *core.Placement) { p.PUs = []int{999} },
		"no PU":             func(p *core.Placement) { p.PUs = nil },
	} {
		m := mapJob(t, c, "csbnh", 24)
		mutate(&m.Placements[5])
		if _, err := mo.Evaluate(c, m, tm); err == nil {
			t.Errorf("%s: Evaluate accepted the placement", name)
		}
	}
}

func TestEvaluateSplitsTraffic(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mapJob(t, c, "csbnh", 24)
	mo := NewModel(NewFlat())
	tm := commpat.Ring(24, 1000)
	rep, err := mo.Evaluate(c, m, tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IntraBytes+rep.InterBytes != tm.Total() {
		t.Fatalf("traffic split %v + %v != %v", rep.IntraBytes, rep.InterBytes, tm.Total())
	}
	if rep.TotalTime <= 0 || rep.MaxRankTime <= 0 {
		t.Fatal("times must be positive")
	}
	if rep.MaxRankTime > rep.TotalTime {
		t.Fatal("per-rank time exceeds total")
	}
	if rep.AvgHops != 1 {
		t.Fatalf("flat AvgHops = %v", rep.AvgHops)
	}
	// Size mismatch.
	if _, err := mo.Evaluate(c, m, commpat.Ring(10, 1)); err == nil {
		t.Fatal("rank mismatch should fail")
	}
}

// TestPackingBeatsScatterForRing is the paper's core motivation: a
// locality-friendly placement of a nearest-neighbor app beats a scattered
// one.
func TestPackingBeatsScatterForRing(t *testing.T) {
	c := fig2Cluster(t, 2)
	tm := commpat.Ring(24, 100000)
	mo := NewModel(NewFlat())

	pack := mapJob(t, c, "csbnh", 24) // consecutive ranks share sockets
	scat := mapJob(t, c, "ncsbh", 24) // consecutive ranks alternate nodes

	rp, err := mo.Evaluate(c, pack, tm)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := mo.Evaluate(c, scat, tm)
	if err != nil {
		t.Fatal(err)
	}
	if rp.InterBytes >= rs.InterBytes {
		t.Fatalf("packing should keep more traffic on-node: %v vs %v",
			rp.InterBytes, rs.InterBytes)
	}
	if rp.TotalTime >= rs.TotalTime {
		t.Fatalf("packing should be cheaper: %v vs %v", rp.TotalTime, rs.TotalTime)
	}
}

func TestEvaluateTorusCongestion(t *testing.T) {
	sp, _ := hw.Preset("bgp-node")
	d := torus.Dims{X: 4, Y: 2, Z: 1}
	c := cluster.Homogeneous(d.Size(), sp)
	m, err := torus.Map(c, d, "txyz", 32)
	if err != nil {
		t.Fatal(err)
	}
	mo := NewModel(NewTorus3D(d))
	rep, err := mo.Evaluate(c, m, commpat.AllToAll(32, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxLinkLoad <= 0 || rep.MeanLinkLoad <= 0 {
		t.Fatal("torus congestion missing")
	}
	if rep.MaxLinkLoad < rep.MeanLinkLoad {
		t.Fatal("max < mean")
	}
	if rep.AvgHops <= 1 {
		t.Fatalf("torus a2a AvgHops = %v, want > 1", rep.AvgHops)
	}
	if math.IsNaN(rep.TotalTime) {
		t.Fatal("NaN cost")
	}
}

func TestDragonfly(t *testing.T) {
	df := NewDragonfly(4)
	if df.Name() != "dragonfly(4)" {
		t.Fatal("name")
	}
	if df.Hops(0, 0) != 0 || df.Hops(0, 3) != 1 || df.Hops(0, 4) != 3 {
		t.Fatalf("hops: %d %d %d", df.Hops(0, 0), df.Hops(0, 3), df.Hops(0, 4))
	}
	if df.Latency(0, 0) != 0 {
		t.Fatal("self latency")
	}
	if df.Latency(0, 3) >= df.Latency(0, 4) {
		t.Fatal("cross-group latency should exceed intra-group")
	}
	if df.Bandwidth(0, 3) <= df.Bandwidth(0, 4) {
		t.Fatal("global taper should reduce bandwidth")
	}
	// Taper clamp and degenerate group size.
	df2 := &Dragonfly{GroupSize: 0, LocalLat: 1, GlobalLat: 2, BW: 100, Taper: 0}
	if df2.Bandwidth(0, 1) != 100 {
		t.Fatal("taper clamp")
	}
	// End to end.
	sp, _ := hw.Preset("bgp-node")
	c := cluster.Homogeneous(8, sp)
	mapper, _ := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	m, err := mapper.Map(32)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewModel(NewDragonfly(4)).Evaluate(c, m, commpat.AllToAll(32, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgHops <= 1 || rep.AvgHops >= 3 {
		t.Fatalf("a2a AvgHops = %v, want between 1 and 3", rep.AvgHops)
	}
}
