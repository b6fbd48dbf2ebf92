package core

import (
	"math/rand"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

func localityMap(t *testing.T, c *cluster.Cluster, np int) *Map {
	t.Helper()
	mapper, err := NewMapper(c, MustParseLayout("csbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func swapTestPlacements(m *Map, a, b int) {
	pa, pb := &m.Placements[a], &m.Placements[b]
	*pa, *pb = *pb, *pa
	pa.Rank, pb.Rank = a, b
}

// TestLocalityTallyMatchesFull pins NewLocalityTally to NeighborLocality
// (which now delegates to it) and the swap delta to a full recompute
// after actually swapping: the integer state must track exactly, so
// comparisons are ==, not approximate.
func TestLocalityTallyMatchesFull(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(4, sp)
	m := localityMap(t, c, 40)

	tally := NewLocalityTally(c, m)
	if got, want := tally.Value(), NeighborLocality(c, m); got != want {
		t.Fatalf("tally %v, NeighborLocality %v", got, want)
	}

	r := rand.New(rand.NewSource(11))
	for step := 0; step < 200; step++ {
		a, b := r.Intn(40), r.Intn(40)
		dd, dp := LocalitySwapDelta(c, m, a, b)
		after := tally.AfterSwap(dd, dp)
		swapTestPlacements(m, a, b)
		tally.Apply(dd, dp)
		full := NewLocalityTally(c, m)
		if tally != full {
			t.Fatalf("step %d swap(%d,%d): tally %+v, full %+v", step, a, b, tally, full)
		}
		if after != full.Value() {
			t.Fatalf("step %d: AfterSwap %v, value %v", step, after, full.Value())
		}
	}
}

func TestLocalitySwapDeltaSelf(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	m := localityMap(t, c, 12)
	if dd, dp := LocalitySwapDelta(c, m, 5, 5); dd != 0 || dp != 0 {
		t.Fatalf("self swap delta (%d,%d)", dd, dp)
	}
}

// TestLocalitySwapDeltaAdjacent covers the overlap case: swapping
// consecutive ranks, where the candidate pair set contains duplicates
// that must be deduplicated, and the swapped ranks appear inside the
// affected pairs themselves.
func TestLocalitySwapDeltaAdjacent(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(3, sp)
	m := localityMap(t, c, 30)
	for a := 0; a < 29; a++ {
		tally := NewLocalityTally(c, m)
		dd, dp := LocalitySwapDelta(c, m, a, a+1)
		swapTestPlacements(m, a, a+1)
		full := NewLocalityTally(c, m)
		swapTestPlacements(m, a, a+1)
		if got := (LocalityTally{tally.DepthSum + dd, tally.Pairs + dp}); got != full {
			t.Fatalf("adjacent swap at %d: delta gives %+v, full %+v", a, got, full)
		}
	}
}

// TestNeighborLocalityGolden pins NeighborLocality to exact values (LCA
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
		m := localityMap(t, tc.c, tc.np)
		if got := NeighborLocality(tc.c, m); got != tc.want {
			t.Errorf("%s: NeighborLocality = %v, want %v", tc.name, got, tc.want)
		}
	}
}
