package core

import (
	"testing"

	"lama/internal/hw"
)

func TestPrunedTreeRenumbering(t *testing.T) {
	// dual-board preset: 2 boards x 2 sockets x 2 cores(:via L2) x 2 PUs.
	sp, _ := hw.Preset("dual-board")
	topo := hw.New(sp)
	// Prune boards: sockets are adopted by the machine and renumbered 0-3.
	pt := NewPrunedTree(topo, []hw.Level{hw.LevelSocket})
	w := pt.Widths()
	if len(w) != 1 || w[0] != 4 {
		t.Fatalf("pruned widths = %v, want [4]", w)
	}
	for i := 0; i < 4; i++ {
		obj := pt.Lookup([]int{i})
		if obj == nil || obj.Level != hw.LevelSocket || obj.Logical != i {
			t.Fatalf("Lookup(%d) = %v", i, obj)
		}
	}
	if pt.Lookup([]int{4}) != nil || pt.Lookup([]int{-1}) != nil {
		t.Fatal("out-of-range Lookup should be nil")
	}
}

func TestPrunedTreeDeepPath(t *testing.T) {
	sp, _ := hw.Preset("nehalem-ep") // 2 sockets x 4 cores x 2 PUs
	topo := hw.New(sp)
	pt := NewPrunedTree(topo, []hw.Level{hw.LevelSocket, hw.LevelCore, hw.LevelPU})
	// socket 1, core 2 (within socket), pu 1 (within core).
	obj := pt.Lookup([]int{1, 2, 1})
	if obj == nil || obj.Level != hw.LevelPU {
		t.Fatalf("Lookup = %v", obj)
	}
	if obj.Ancestor(hw.LevelCore).Logical != 6 || obj.Ancestor(hw.LevelSocket).Logical != 1 {
		t.Fatalf("resolved wrong object: core %v socket %v",
			obj.Ancestor(hw.LevelCore), obj.Ancestor(hw.LevelSocket))
	}
	w := pt.Widths()
	if w[0] != 2 || w[1] != 4 || w[2] != 2 {
		t.Fatalf("widths = %v", w)
	}
}

func TestPrunedTreeSkipsMiddleLevels(t *testing.T) {
	// Layout mentions only L2 and PU: cores/L1s are pruned away so each
	// L2's pruned children are its PUs.
	sp, _ := hw.Preset("power7") // L3 x4 per socket, L2 x2 per L3, SMT-4
	topo := hw.New(sp)
	pt := NewPrunedTree(topo, []hw.Level{hw.LevelL2, hw.LevelPU})
	w := pt.Widths()
	if w[0] != 16 { // 2 sockets x 4 L3 x 2 L2
		t.Fatalf("L2 width = %d, want 16", w[0])
	}
	if w[1] != 4 { // SMT-4 per core, one core per L2
		t.Fatalf("PU width = %d, want 4", w[1])
	}
}

func TestMaximalTreeUnion(t *testing.T) {
	big, _ := hw.Preset("nehalem-ep") // 2 sockets x 4 cores x 2 PUs
	small, _ := hw.Preset("bgp-node") // 1 socket x 4 cores x 1 PU
	topos := []*hw.Topology{hw.New(big), hw.New(small)}
	mt := NewMaximalTree(topos, []hw.Level{hw.LevelSocket, hw.LevelCore, hw.LevelPU})
	if mt.Width(0) != 2 || mt.Width(1) != 4 || mt.Width(2) != 2 {
		t.Fatalf("maximal widths = %d %d %d", mt.Width(0), mt.Width(1), mt.Width(2))
	}
	// Node 1 has no socket 1: lookup must be nil (skip), not panic.
	if mt.Lookup(1, []int{1, 0, 0}) != nil {
		t.Fatal("nonexistent coordinate should be nil")
	}
	if mt.Lookup(1, []int{0, 0, 1}) != nil {
		t.Fatal("nonexistent PU should be nil")
	}
	if mt.Lookup(0, []int{1, 3, 1}) == nil {
		t.Fatal("existing coordinate missing")
	}
	if mt.Lookup(5, []int{0}) != nil || mt.Lookup(-1, []int{0}) != nil {
		t.Fatal("bad node index should be nil")
	}
}
