package core

import (
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// These tests pin the copy-on-write contract between cluster.Snapshot and
// the dense tree: deriving a snapshot by failing one node must give ONLY
// that node a new topology, while every healthy ShapeSig twin keeps its
// topology and every node, the failed one included, keeps the cached
// *prunedShape (failing a node must not invalidate shared shapes).

func nehalem(t *testing.T) hw.Spec {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	return sp
}

func TestSnapshotTwinsKeepCachedShape(t *testing.T) {
	s1 := cluster.SnapshotOf(cluster.Homogeneous(4, nehalem(t)))
	layout := MustParseLayout("csbnh")
	intra := layout.IntraNode()

	t1 := &denseTree{}
	t1.refresh(s1.Cluster(), intra)
	s2, ok := s1.FailNode(2)
	if !ok {
		t.Fatal("FailNode failed")
	}
	t2 := &denseTree{}
	t2.refresh(s2.Cluster(), intra)

	for i := 0; i < 4; i++ {
		if i == 2 {
			if t1.topos[i] == t2.topos[i] {
				t.Fatal("failed node must read a fresh topology")
			}
		} else if t1.topos[i] != t2.topos[i] {
			t.Fatalf("healthy twin %d lost its topology across the snapshot", i)
		}
		// The availability-independent pruned shape is shared by every
		// node of the homogeneous cluster — including the failed one —
		// across both snapshots.
		if t1.shapes[i] != t1.shapes[0] || t2.shapes[i] != t1.shapes[0] {
			t.Fatalf("node %d does not share the pruned shape", i)
		}
	}
}

func TestFreshForDetectsSnapshotSwapByIdentity(t *testing.T) {
	s1 := cluster.SnapshotOf(cluster.Homogeneous(4, nehalem(t)))
	layout := MustParseLayout("csbnh")

	m := &Mapper{Cluster: s1.Cluster(), Layout: layout}
	mp1, err := m.Map(48)
	if err != nil {
		t.Fatal(err)
	}

	// Derive a sibling snapshot with node 1 failed. Freshness hinges on
	// topology identity: the failed node's topology is a new clone.
	s2, _ := s1.FailNode(1)
	if !m.state.tree.freshFor(s1.Cluster()) {
		t.Fatal("tree must stay fresh for the snapshot it was built from")
	}
	if m.state.tree.freshFor(s2.Cluster()) {
		t.Fatal("tree must go stale when re-pointed at a sibling snapshot")
	}

	m.Cluster = s2.Cluster()
	mp2, err := m.Map(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mp2.Placements {
		if p.Node == 1 {
			t.Fatalf("rank %d placed on the failed node via a stale tree", p.Rank)
		}
	}
	// Sanity: the first map did use node 1.
	used := false
	for _, p := range mp1.Placements {
		if p.Node == 1 {
			used = true
		}
	}
	if !used {
		t.Fatal("baseline map should have used node 1")
	}
}
