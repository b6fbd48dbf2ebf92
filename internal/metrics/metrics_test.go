package metrics

import (
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22")
	tb.AddRow("short") // padded
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every row's "value" column starts at the same offset.
	idx := strings.Index(lines[1], "value")
	if idx < 0 {
		t.Fatal("header missing")
	}
	if !strings.HasPrefix(lines[3][idx:], "1") && !strings.HasPrefix(lines[4][idx:], "22") {
		t.Fatalf("misaligned:\n%s", out)
	}
	// Extra cells beyond headers are ignored in render.
	tb2 := NewTable("", "a")
	tb2.AddRow("x", "y", "z")
	if strings.Contains(tb2.String(), "==") {
		t.Fatal("untitled table should not print a title")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" || I(42) != "42" {
		t.Fatal("F/I")
	}
	if Pct(80, 100) != "+20.0%" {
		t.Fatalf("Pct = %s", Pct(80, 100))
	}
	if Pct(120, 100) != "-20.0%" {
		t.Fatalf("Pct = %s", Pct(120, 100))
	}
	if Pct(1, 0) != "n/a" {
		t.Fatal("Pct zero baseline")
	}
}

func TestSummarize(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 ranks pack exactly the first hardware threads of node0's 6 cores.
	m, err := mapper.Map(6)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(c, m)
	if s.Ranks != 6 || s.NodesUsed != 1 || s.MaxPerNode != 6 || s.MinPerNode != 6 {
		t.Fatalf("summary = %+v", s)
	}
	if s.SocketsUsed != 2 {
		t.Fatalf("sockets used = %d", s.SocketsUsed)
	}
	if s.Oversubscribed {
		t.Fatal("not oversubscribed")
	}
	// Packed consecutive ranks are close: average LCA depth should be at
	// least board level.
	if s.AvgNeighborLevel < float64(hw.LevelBoard.Depth()) {
		t.Fatalf("AvgNeighborLevel = %v", s.AvgNeighborLevel)
	}

	// Scattered mapping uses both nodes evenly.
	mapper2, _ := core.NewMapper(c, core.MustParseLayout("ncsbh"), core.Options{})
	m2, err := mapper2.Map(8)
	if err != nil {
		t.Fatal(err)
	}
	s2 := Summarize(c, m2)
	if s2.NodesUsed != 2 || s2.MaxPerNode != 4 || s2.MinPerNode != 4 {
		t.Fatalf("summary2 = %+v", s2)
	}
	// Consecutive ranks never share a node under by-node: no pairs.
	if s2.AvgNeighborLevel != 0 {
		t.Fatalf("AvgNeighborLevel = %v", s2.AvgNeighborLevel)
	}
}

// TestSummarizeEmptyMap is the regression test for the MinPerNode floor:
// a map with no placements must report 0, never a ranks-derived sentinel
// such as NumRanks+1 leaking out of the scan.
func TestSummarizeEmptyMap(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	s := Summarize(c, &core.Map{})
	if s.MinPerNode != 0 {
		t.Errorf("empty map MinPerNode = %d, want 0", s.MinPerNode)
	}
	if s.Ranks != 0 || s.NodesUsed != 0 || s.MaxPerNode != 0 || s.SocketsUsed != 0 {
		t.Errorf("empty map summary = %+v, want all-zero", s)
	}
}

func TestMapSummaryRecord(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(8)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(c, m)
	reg := obs.NewRegistry()
	s.Record(reg)
	snap := reg.Snapshot()
	if got := snap.Gauges["lama_map_ranks"]; got != 8 {
		t.Errorf("lama_map_ranks = %v", got)
	}
	if got := snap.Gauges["lama_map_nodes_used"]; got != float64(s.NodesUsed) {
		t.Errorf("lama_map_nodes_used = %v, want %d", got, s.NodesUsed)
	}
	if got := snap.Gauges["lama_map_min_per_node"]; got != float64(s.MinPerNode) {
		t.Errorf("lama_map_min_per_node = %v, want %d", got, s.MinPerNode)
	}
	s.Record(nil) // nil registry must be a no-op, not a panic
}

// TestNeighborLocalityGolden pins neighborLocality to exact values (LCA
// depth sum over same-node pair count: 163/33, 91/25, 125/35) on a
// homogeneous cluster, a heterogeneous one and a snapshot after FailNode,
// so comparisons are ==, not approximate.
func TestNeighborLocalityGolden(t *testing.T) {
	fig2, _ := hw.Preset("fig2")
	big, _ := hw.Preset("nehalem-ep")
	small, _ := hw.Preset("bgp-node")
	failed, ok := cluster.SnapshotOf(cluster.Homogeneous(4, big)).FailNode(1)
	if !ok {
		t.Fatal("FailNode failed")
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
		np   int
		want float64
	}{
		{"fig2x4", cluster.Homogeneous(4, fig2), 40, 4.9393939393939394},
		{"heterogeneous", cluster.FromSpecs(big, small, big), 30, 3.64},
		{"after-fail-node", failed.Cluster(), 40, 3.5714285714285716},
	} {
		mapper, err := core.NewMapper(tc.c, core.MustParseLayout("csbnh"), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapper.Map(tc.np)
		if err != nil {
			t.Fatal(err)
		}
		if got := neighborLocality(tc.c, m); got != tc.want {
			t.Errorf("%s: neighborLocality = %v, want %v", tc.name, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(20, func() { neighborLocality(tc.c, m) }); allocs != 0 {
			t.Errorf("%s: neighborLocality allocates %v per call, want 0", tc.name, allocs)
		}
	}
}
