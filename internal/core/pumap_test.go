package core

import (
	"reflect"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// TestSizeClass: every np up to maxPooledRanks rounds up to a class at
// most a quarter over it (past the smallest class), classes ascend with
// np, and one class always has one size; a larger np has no class.
func TestSizeClass(t *testing.T) {
	sizes := map[int]int{}
	lastClass, lastSize := 0, 0
	for np := 1; np <= maxPooledRanks; np++ {
		class, size := sizeClass(np)
		if class < 0 || class >= numClasses {
			t.Fatalf("np %d: class %d outside [0, %d)", np, class, numClasses)
		}
		if size < np || (np > minClassRanks && 4*size > 5*np) {
			t.Fatalf("np %d: class size %d", np, size)
		}
		if class < lastClass || size < lastSize {
			t.Fatalf("np %d: class %d size %d after class %d size %d", np, class, size, lastClass, lastSize)
		}
		if s, ok := sizes[class]; ok && s != size {
			t.Fatalf("class %d has sizes %d and %d", class, s, size)
		}
		sizes[class], lastClass, lastSize = size, class, size
	}
	if len(sizes) != numClasses || lastSize != maxPooledRanks {
		t.Fatalf("%d classes up to %d ranks, want %d up to %d", len(sizes), lastSize, numClasses, maxPooledRanks)
	}
	if class, size := sizeClass(maxPooledRanks + 1); class != noClass || size != maxPooledRanks+1 {
		t.Fatalf("np %d: class %d size %d, want no class", maxPooledRanks+1, class, size)
	}
}

// TestPUMapMatchesHandBuilt: a NewPUMap map, fresh or on recycled
// storage, is deeply equal to the same placements built by hand with
// windows of their own, so the storage slot is invisible to every reader;
// a Prefix of it has no storage slot. Sizes step down and up, so a map is
// built on storage a larger or a smaller one was recycled from.
func TestPUMapMatchesHandBuilt(t *testing.T) {
	c := nehalemCluster(t, 4)
	var pus []*hw.Object
	var nodes []int
	for i, node := range c.Nodes {
		for _, pu := range node.Topo.UsablePUs() {
			pus, nodes = append(pus, pu), append(nodes, i)
		}
	}
	for round, np := range []int{64, 17, 64, 3, 60, maxPooledRanks + 1, 40} {
		m := NewPUMap(np)
		want := &Map{Sweeps: 1}
		for r := range m.Placements {
			if !reflect.DeepEqual(m.Placements[r], Placement{}) {
				t.Fatalf("round %d np %d: rank %d not zero before SetPU", round, np, r)
			}
		}
		for r := 0; r < np; r++ {
			// Fill in reverse, as treematch may, and wrap past the PUs.
			rank := np - 1 - r
			k := rank % len(pus)
			m.SetPU(rank, nodes[k], c.Nodes[nodes[k]].Name, pus[k])
			want.Placements = append(want.Placements, Placement{})
		}
		for rank := range want.Placements {
			k := rank % len(pus)
			want.Placements[rank] = Placement{
				Rank: rank, Node: nodes[k], NodeName: c.Nodes[nodes[k]].Name,
				Leaf: pus[k], PUs: []int{pus[k].OS},
			}
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("round %d np %d: NewPUMap map differs from the hand-built one", round, np)
		}
		if p := m.Prefix(np); p.storage() != nil {
			t.Fatalf("round %d np %d: a Prefix exposes the storage slot", round, np)
		}
		Recycle(m)
	}
}

// TestRecycledMapPanics: a recycled map's slices are nil, so reading a
// placement panics rather than reading storage the pool has handed on,
// and recycling a map NewPUMap did not build only clears it.
func TestRecycledMapPanics(t *testing.T) {
	c := nehalemCluster(t, 1)
	pu := c.Nodes[0].Topo.UsablePUs()[0]
	m := NewPUMap(1)
	m.SetPU(0, 0, c.Nodes[0].Name, pu)
	Recycle(m)
	if m.Placements != nil || m.SweepEnds != nil {
		t.Fatalf("recycled map keeps its slices: %d placements", len(m.Placements))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reading a recycled map's placement did not panic")
			}
		}()
		_ = m.Placements[0].PUs
	}()

	own := make([]Placement, 2, 8)
	other := &Map{Placements: own, SweepEnds: []int{1}}
	Recycle(other)
	if other.Placements != nil || other.SweepEnds != nil {
		t.Fatal("recycling a map NewPUMap did not build left its slices")
	}
	for i := 0; i < 16; i++ {
		if n := NewPUMap(2); &n.Placements[0] == &own[0] {
			t.Fatal("NewPUMap handed out storage it never pooled")
		}
	}
}

func nehalemCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("no nehalem-ep preset")
	}
	return cluster.Homogeneous(nodes, sp)
}
