package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

func fig2Cluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, ok := hw.Preset("fig2") // 2 sockets x 3 cores x 2 PUs, sequential OS
	if !ok {
		t.Fatal("fig2 preset missing")
	}
	return cluster.Homogeneous(nodes, sp)
}

func mustMap(t *testing.T, c *cluster.Cluster, layout string, opts Options, np int) *Map {
	t.Helper()
	m, err := NewMapper(c, MustParseLayout(layout), opts)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(c); err != nil {
		t.Fatalf("invalid map: %v", err)
	}
	return mp
}

// pusOf flattens rank -> representative PU.
func pusOf(m *Map) []int {
	out := make([]int, m.NumRanks())
	for i := range m.Placements {
		out[i] = m.Placements[i].PU()
	}
	return out
}

func nodesOf(m *Map) []int {
	out := make([]int, m.NumRanks())
	for i := range m.Placements {
		out[i] = m.Placements[i].Node
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure2Mapping reproduces the paper's Figure 2: 24 processes with the
// scbnh layout on two nodes. The layout scatters across sockets, then
// cores, fills the node, moves to the next node, and only then wraps onto
// the second hardware thread (§IV-C).
func TestFigure2Mapping(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mustMap(t, c, "scbnh", Options{}, 24)

	// fig2 sequential OS numbering: socket0 cores have PUs {0,1},{2,3},{4,5};
	// socket1: {6,7},{8,9},{10,11}.
	wantPUs := []int{
		0, 6, 2, 8, 4, 10, // node0, h0: scatter sockets, then cores
		0, 6, 2, 8, 4, 10, // node1, h0
		1, 7, 3, 9, 5, 11, // node0, h1
		1, 7, 3, 9, 5, 11, // node1, h1
	}
	wantNodes := []int{
		0, 0, 0, 0, 0, 0,
		1, 1, 1, 1, 1, 1,
		0, 0, 0, 0, 0, 0,
		1, 1, 1, 1, 1, 1,
	}
	if got := pusOf(m); !eqInts(got, wantPUs) {
		t.Fatalf("PUs = %v\nwant %v", got, wantPUs)
	}
	if got := nodesOf(m); !eqInts(got, wantNodes) {
		t.Fatalf("nodes = %v\nwant %v", got, wantNodes)
	}
	if m.Oversubscribed() {
		t.Fatal("24 ranks on 24 PUs must not oversubscribe")
	}
	if m.Sweeps != 1 {
		t.Fatalf("sweeps = %d", m.Sweeps)
	}
	// Every PU used exactly once.
	seen := hw.NewCPUSet()
	for _, p := range m.Placements {
		if p.Node == 0 {
			seen.Set(p.PU())
		}
	}
	if seen.Count() != 12 {
		t.Fatalf("node0 distinct PUs = %d", seen.Count())
	}
}

func TestBySlotAndByNodeLayouts(t *testing.T) {
	c := fig2Cluster(t, 2)
	// Pack: cores innermost, then sockets, then node: csnh fills node0's
	// first threads 0,2,4,6,8,10 before node1.
	pack := mustMap(t, c, "csnh", Options{}, 6)
	if got := nodesOf(pack); !eqInts(got, []int{0, 0, 0, 0, 0, 0}) {
		t.Fatalf("pack nodes = %v", got)
	}
	if got := pusOf(pack); !eqInts(got, []int{0, 2, 4, 6, 8, 10}) {
		t.Fatalf("pack PUs = %v", got)
	}
	// Cycle: node innermost: ncsh alternates nodes rank by rank.
	cyc := mustMap(t, c, "ncsh", Options{}, 6)
	if got := nodesOf(cyc); !eqInts(got, []int{0, 1, 0, 1, 0, 1}) {
		t.Fatalf("cycle nodes = %v", got)
	}
}

func TestMapWithoutHWThreadLevel(t *testing.T) {
	// Layout "scn": PU level pruned, ranks map to cores; two ranks per core
	// are possible without oversubscription because each core has 2 PUs.
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scn", Options{}, 12)
	if m.Oversubscribed() {
		t.Fatal("12 ranks on 12 PUs (6 dual-thread cores) should not oversubscribe")
	}
	if m.Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2 (each core visited twice)", m.Sweeps)
	}
	// Ranks 0 and 6 share core 0 but use distinct threads.
	if m.Placements[0].Leaf != m.Placements[6].Leaf {
		t.Fatal("ranks 0 and 6 should share core 0")
	}
	if m.Placements[0].PU() == m.Placements[6].PU() {
		t.Fatal("ranks 0 and 6 must use distinct PUs")
	}
	if m.Placements[0].Leaf.Level != hw.LevelCore {
		t.Fatalf("leaf level = %s, want core", m.Placements[0].Leaf.Level)
	}
}

func TestOversubscriptionDisallowed(t *testing.T) {
	c := fig2Cluster(t, 1) // 12 PUs
	m, err := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(13); !errors.Is(err, ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
	// Exactly capacity is fine.
	if _, err := m.Map(12); err != nil {
		t.Fatal(err)
	}
}

func TestOversubscriptionAllowed(t *testing.T) {
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scbnh", Options{Oversubscribe: true}, 15)
	if !m.Oversubscribed() {
		t.Fatal("15 ranks on 12 PUs must oversubscribe")
	}
	over := 0
	for _, p := range m.Placements {
		if p.Oversubscribed {
			over++
		}
	}
	if over != 3 {
		t.Fatalf("oversubscribed ranks = %d, want 3", over)
	}
	if m.Sweeps != 2 {
		t.Fatalf("sweeps = %d", m.Sweeps)
	}
}

func TestUnavailableResourcesSkipped(t *testing.T) {
	c := fig2Cluster(t, 2)
	// Off-line socket 1 of node 0 (6 PUs gone; 18 remain).
	c.Node(0).Topo.SetAvailable(hw.LevelSocket, 1, false)
	m := mustMap(t, c, "scbnh", Options{}, 18)
	for _, p := range m.Placements {
		if p.Node == 0 && p.Leaf.Ancestor(hw.LevelSocket).Logical == 1 {
			t.Fatalf("rank %d mapped to offline socket", p.Rank)
		}
	}
	// node0 only contributes 6 PUs.
	perNode := m.RanksByNode()
	if len(perNode[0]) != 6 || len(perNode[1]) != 12 {
		t.Fatalf("ranks per node = %d/%d", len(perNode[0]), len(perNode[1]))
	}
}

func TestSchedulerRestrictionSkipped(t *testing.T) {
	c := fig2Cluster(t, 1)
	c.Node(0).Topo.Restrict(hw.CPUSetRange(0, 5)) // socket 0 only
	m := mustMap(t, c, "scbnh", Options{}, 6)
	for _, p := range m.Placements {
		if p.PU() > 5 {
			t.Fatalf("rank %d escaped restriction to PU %d", p.Rank, p.PU())
		}
	}
	mm, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if _, err := mm.Map(7); !errors.Is(err, ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
}

func TestAllOfflineIsNoResources(t *testing.T) {
	c := fig2Cluster(t, 1)
	c.Node(0).Topo.SetAvailable(hw.LevelBoard, 0, false)
	m, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if _, err := m.Map(1); !errors.Is(err, ErrNoResources) {
		t.Fatalf("want ErrNoResources, got %v", err)
	}
}

func TestHeterogeneousMapping(t *testing.T) {
	big, _ := hw.Preset("nehalem-ep") // 2s x 4c x 2t = 16 PUs
	small, _ := hw.Preset("bgp-node") // 1s x 4c x 1t = 4 PUs
	c := cluster.FromSpecs(big, small)
	// Socket-scatter across both nodes; the maximal tree has width 2 at
	// sockets and 2 at PU, but node1 only has socket 0 / thread 0 —
	// those coordinates are skipped, not errors.
	m := mustMap(t, c, "scnh", Options{}, 20)
	perNode := m.RanksByNode()
	if len(perNode[0]) != 16 || len(perNode[1]) != 4 {
		t.Fatalf("ranks per node = %d/%d", len(perNode[0]), len(perNode[1]))
	}
	if m.Oversubscribed() {
		t.Fatal("20 ranks on 20 PUs")
	}
	// node1 ranks sit only on its existing coordinates.
	for r, p := range m.Placements {
		if s := m.Coords(r)[hw.LevelSocket]; p.Node == 1 && s != 0 {
			t.Fatalf("rank %d on nonexistent socket %d of node1", p.Rank, s)
		}
	}
}

func TestPrunedRenumberingAcrossBoards(t *testing.T) {
	sp, _ := hw.Preset("dual-board") // 2 boards x 2 sockets x 2 cores x 2 PUs
	c := cluster.FromSpecs(sp)
	// Boards pruned: "sn" iterates 4 renumbered sockets.
	m := mustMap(t, c, "scnh", Options{}, 4)
	socketsSeen := map[int]bool{}
	for r := range m.Placements {
		socketsSeen[m.Coords(r)[hw.LevelSocket]] = true
	}
	for i := 0; i < 4; i++ {
		if !socketsSeen[i] {
			t.Fatalf("renumbered socket %d never used: %v", i, socketsSeen)
		}
	}
}

func TestPEsPerProc(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mustMap(t, c, "scn", Options{PEsPerProc: 2}, 12)
	for _, p := range m.Placements {
		if len(p.PUs) != 2 {
			t.Fatalf("rank %d claims %d PUs", p.Rank, len(p.PUs))
		}
		if p.PUs[0] == p.PUs[1] {
			t.Fatalf("rank %d claims duplicate PUs", p.Rank)
		}
		if p.Oversubscribed {
			t.Fatalf("rank %d oversubscribed", p.Rank)
		}
	}
	// 12 ranks x 2 PEs = 24 PUs = all PUs, each exactly once.
	claimed := map[[2]int]bool{}
	for _, p := range m.Placements {
		for _, pu := range p.PUs {
			k := [2]int{p.Node, pu}
			if claimed[k] {
				t.Fatalf("PU %v claimed twice", k)
			}
			claimed[k] = true
		}
	}
	// A 13th rank would need to share.
	mm, _ := NewMapper(c, MustParseLayout("scn"), Options{PEsPerProc: 2})
	if _, err := mm.Map(13); !errors.Is(err, ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
}

func TestPEsLargerThanLeafSkips(t *testing.T) {
	// pe=4 with PU-level leaves (1 PU each) can never fit without
	// oversubscription.
	c := fig2Cluster(t, 1)
	m, _ := NewMapper(c, MustParseLayout("scbnh"), Options{PEsPerProc: 4})
	if _, err := m.Map(1); !errors.Is(err, ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
	// With socket leaves (6 PUs) pe=4 fits one rank per socket.
	ms := mustMap(t, c, "sn", Options{PEsPerProc: 4}, 2)
	for _, p := range ms.Placements {
		if len(p.PUs) != 4 || p.Oversubscribed {
			t.Fatalf("socket rank: %+v", p)
		}
	}
}

func TestMaxPerResourceCaps(t *testing.T) {
	c := fig2Cluster(t, 2)
	// At most 2 ranks per node.
	m := mustMap(t, c, "scbnh", Options{
		MaxPerResource: map[hw.Level]int{hw.LevelMachine: 2},
	}, 4)
	perNode := m.RanksByNode()
	if len(perNode[0]) != 2 || len(perNode[1]) != 2 {
		t.Fatalf("node cap violated: %v", perNode)
	}
	// Cap exhausted: 5th rank cannot be placed anywhere.
	mm, _ := NewMapper(c, MustParseLayout("scbnh"), Options{
		MaxPerResource: map[hw.Level]int{hw.LevelMachine: 2},
	})
	if _, err := mm.Map(5); !errors.Is(err, ErrNoResources) {
		t.Fatalf("want ErrNoResources, got %v", err)
	}
	// At most 1 rank per socket.
	ms := mustMap(t, c, "scbnh", Options{
		MaxPerResource: map[hw.Level]int{hw.LevelSocket: 1},
	}, 4)
	seen := map[*hw.Object]int{}
	for _, p := range ms.Placements {
		seen[p.Leaf.Ancestor(hw.LevelSocket)]++
	}
	for s, n := range seen {
		if n > 1 {
			t.Fatalf("socket %v has %d ranks", s, n)
		}
	}
}

func TestCustomIterationOrder(t *testing.T) {
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scbnh", Options{
		IterOrder: map[hw.Level]IterOrder{hw.LevelSocket: ReverseOrder},
	}, 2)
	// Reverse socket order: rank 0 lands on socket 1 first.
	if m.Coords(0)[hw.LevelSocket] != 1 || m.Coords(1)[hw.LevelSocket] != 0 {
		t.Fatalf("reverse order ignored: %v %v", m.Coords(0), m.Coords(1))
	}
	// Invalid custom order errors out.
	bad := func(width int) []int { return make([]int, width) } // all zeros
	mm, _ := NewMapper(c, MustParseLayout("scbnh"), Options{
		IterOrder: map[hw.Level]IterOrder{hw.LevelCore: bad},
	})
	if _, err := mm.Map(1); err == nil {
		t.Fatal("invalid iteration order should fail")
	}
	short := func(width int) []int { return []int{0} }
	mm2, _ := NewMapper(c, MustParseLayout("scbnh"), Options{
		IterOrder: map[hw.Level]IterOrder{hw.LevelCore: short},
	})
	if _, err := mm2.Map(1); err == nil {
		t.Fatal("short iteration order should fail")
	}
}

func TestMapperValidation(t *testing.T) {
	c := fig2Cluster(t, 1)
	if _, err := NewMapper(nil, MustParseLayout("n"), Options{}); err == nil {
		t.Fatal("nil cluster")
	}
	if _, err := NewMapper(&cluster.Cluster{}, MustParseLayout("n"), Options{}); err == nil {
		t.Fatal("empty cluster")
	}
	if _, err := NewMapper(c, MustParseLayout("sc"), Options{}); err == nil {
		t.Fatal("layout without n must be rejected")
	}
	m, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if _, err := m.Map(0); err == nil {
		t.Fatal("np=0")
	}
	if _, err := m.Map(-3); err == nil {
		t.Fatal("np<0")
	}
}

func TestNodeOnlyLayout(t *testing.T) {
	// Layout "n": no intra levels; each node is one leaf (the machine),
	// holding all its PUs.
	c := fig2Cluster(t, 2)
	m := mustMap(t, c, "n", Options{}, 4)
	if got := nodesOf(m); !eqInts(got, []int{0, 1, 0, 1}) {
		t.Fatalf("nodes = %v", got)
	}
	if m.Placements[0].Leaf.Level != hw.LevelMachine {
		t.Fatal("leaf should be the machine")
	}
	// Ranks 0 and 2 share node 0 but not a PU.
	if m.Placements[0].PU() == m.Placements[2].PU() {
		t.Fatal("distinct PUs expected")
	}
}

func TestMapRendering(t *testing.T) {
	c := fig2Cluster(t, 2)
	m := mustMap(t, c, "scbnh", Options{}, 24)
	r := m.Render()
	if !strings.Contains(r, "rank") || !strings.Contains(r, "node1") {
		t.Fatalf("Render:\n%s", r)
	}
	byNode := m.RenderByNode(c)
	for _, want := range []string{"node0:", "socket 1:", "core 5:", "h0:", "h1:"} {
		if !strings.Contains(byNode, want) {
			t.Fatalf("RenderByNode missing %q:\n%s", want, byNode)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := fig2Cluster(t, 1)
	m := mustMap(t, c, "scbnh", Options{}, 4)

	bad := *m
	bad.Placements = append([]Placement(nil), m.Placements...)
	bad.Placements[2].Rank = 7
	if bad.Validate(c) == nil {
		t.Fatal("rank corruption undetected")
	}

	bad2 := *m
	bad2.Placements = append([]Placement(nil), m.Placements...)
	bad2.Placements[0].Node = 9
	if bad2.Validate(c) == nil {
		t.Fatal("node corruption undetected")
	}

	bad3 := *m
	bad3.Placements = append([]Placement(nil), m.Placements...)
	bad3.Placements[0].PUs = nil
	if bad3.Validate(c) == nil {
		t.Fatal("empty PU claim undetected")
	}

	bad4 := *m
	bad4.Placements = append([]Placement(nil), m.Placements...)
	bad4.Placements[0].PUs = []int{99}
	if bad4.Validate(c) == nil {
		t.Fatal("missing PU undetected")
	}

	bad5 := *m
	bad5.Placements = append([]Placement(nil), m.Placements...)
	bad5.Placements[0].Oversubscribed = true
	if bad5.Validate(c) == nil {
		t.Fatal("bogus oversubscription flag undetected")
	}

	// A leaf that does not hold the claimed PU: another PU of the same
	// node, or the same PU of another node's tree.
	c3 := fig2Cluster(t, 2)
	m3 := mustMap(t, c3, "scbnh", Options{}, 4)
	leaf := m3.Placements[0].Leaf
	for name, other := range map[string]*hw.Object{
		"non-ancestor": m3.Placements[1].Leaf,
		"foreign":      c3.Node(1).Topo.ObjectAt(leaf.Level, leaf.Logical),
	} {
		bad6 := *m3
		bad6.Placements = append([]Placement(nil), m3.Placements...)
		bad6.Placements[0].Leaf = other
		if bad6.Validate(c3) == nil {
			t.Fatalf("%s leaf undetected", name)
		}
	}

	// Claimed but unusable PU: the map checked against its cluster as
	// built with a restriction the mapper did not see.
	m2 := mustMap(t, fig2Cluster(t, 1), "scbnh", Options{}, 4)
	c2 := fig2Cluster(t, 1)
	c2.Node(0).Topo.Restrict(hw.NewCPUSet(11))
	if err := m2.Validate(c2); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("unusable PU claim undetected: %v", err)
	}
}

func TestPlacementPUEmpty(t *testing.T) {
	p := Placement{}
	if p.PU() != -1 {
		t.Fatal("empty placement PU should be -1")
	}
}

func TestRespectSlots(t *testing.T) {
	c := fig2Cluster(t, 2)
	c.Node(0).Slots = 2
	c.Node(1).Slots = 3
	m := mustMap(t, c, "csbnh", Options{RespectSlots: true}, 5)
	per := m.RanksByNode()
	if len(per[0]) != 2 || len(per[1]) != 3 {
		t.Fatalf("per node = %d/%d, want 2/3", len(per[0]), len(per[1]))
	}
	// A 6th rank exceeds total slots.
	mm, _ := NewMapper(c, MustParseLayout("csbnh"), Options{RespectSlots: true})
	if _, err := mm.Map(6); !errors.Is(err, ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
	// --oversubscribe lifts the slot cap (Open MPI semantics).
	mo := mustMap(t, c, "csbnh", Options{RespectSlots: true, Oversubscribe: true}, 6)
	if mo.NumRanks() != 6 {
		t.Fatal("oversubscribe should lift slot caps")
	}
	// Default slots = usable cores: fig2 node has 6 cores.
	c2 := fig2Cluster(t, 1)
	m2 := mustMap(t, c2, "csbnh", Options{RespectSlots: true}, 6)
	if m2.NumRanks() != 6 {
		t.Fatal("default slots should be core count")
	}
	mm2, _ := NewMapper(c2, MustParseLayout("csbnh"), Options{RespectSlots: true})
	if _, err := mm2.Map(7); !errors.Is(err, ErrOversubscribe) {
		t.Fatal("7th rank should exceed 6 default slots")
	}
}

// TestMapContextCanceled: a canceled context aborts mapping and traced
// runs at phase boundaries with the context's error (place.Sweep's own
// cancellation is tested in internal/place).
func TestMapContextCanceled(t *testing.T) {
	mapper, err := NewMapper(fig2Cluster(t, 2), MustParseLayout("csbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mapper.MapContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapContext err = %v, want context.Canceled", err)
	}
	if _, _, err := mapper.MapTracedContext(ctx, 4, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapTracedContext err = %v, want context.Canceled", err)
	}
	// The mapper stays usable after a canceled run.
	if _, err := mapper.Map(4); err != nil {
		t.Fatalf("mapper unusable after cancellation: %v", err)
	}
}
