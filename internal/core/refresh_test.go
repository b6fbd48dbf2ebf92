package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// These tests pin the in-place dense-tree refresh: a Mapper re-pointed at
// a copy-on-write sibling snapshot keeps every untouched node and
// resolves only what the derivation changed, and what it then serves is
// exactly what a brand-new Mapper computes.

// deriveRandom applies one copy-on-write event of the given kind to s and
// returns the child (s itself when the event changed nothing).
func deriveRandom(t *testing.T, r *rand.Rand, s *cluster.Snapshot, kind int, specs []hw.Spec, step int) *cluster.Snapshot {
	t.Helper()
	node := r.Intn(s.NumNodes())
	switch kind {
	case 0:
		set := &hw.CPUSet{}
		for _, pu := range s.Cluster().Node(node).Topo.Root.UsablePUs() {
			if r.Intn(4) == 0 {
				set.Set(pu.OS)
			}
		}
		next, _ := s.FailPUs(node, set)
		return next
	case 1:
		next, ok := s.FailNode(node)
		if !ok {
			t.Fatalf("step %d: FailNode(%d) refused", step, node)
		}
		return next
	case 2:
		return s.AppendNode(&cluster.Node{
			Name:  fmt.Sprintf("grow%d", step),
			Topo:  hw.New(specs[r.Intn(len(specs))]),
			Slots: 2 + r.Intn(10),
		})
	default:
		// A whole socket fails: the node keeps its shape but loses a
		// subtree, so its maximal widths shrink.
		sockets := s.Cluster().Node(node).Topo.Objects(hw.LevelSocket)
		if len(sockets) == 0 {
			return s
		}
		next, _ := s.FailPUs(node, sockets[r.Intn(len(sockets))].PUSet())
		return next
	}
}

// TestRefreshServedEqualsFreshChain re-points one long-lived Mapper along
// a chain of copy-on-write events — partial, socket-wide and whole-node
// failures, and grows by a different preset, so node shapes and maximal
// widths change — switching the layout once midway and cycling
// the options through slot limits and per-resource caps. At every epoch
// the reused mapper must return exactly what a brand-new Mapper returns
// and agree with MapReference on that epoch's snapshot.
func TestRefreshServedEqualsFreshChain(t *testing.T) {
	var specs []hw.Spec
	for _, name := range []string{"nehalem-ep", "fig2", "magny-cours", "power7", "dual-board"} {
		sp, ok := hw.Preset(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		specs = append(specs, sp)
	}
	optCycle := []Options{
		{},
		{RespectSlots: true},
		{MaxPerResource: map[hw.Level]int{hw.LevelSocket: 3}},
		{RespectSlots: true, MaxPerResource: map[hw.Level]int{hw.LevelMachine: 5, hw.LevelCore: 1}},
		{Oversubscribe: true, PEsPerProc: 2, RespectSlots: true},
	}
	const steps = 64
	r := rand.New(rand.NewSource(13))
	s := cluster.SnapshotOf(cluster.FromSpecs(specs[0], specs[1], specs[2], specs[0], specs[3], specs[0]))
	m := &Mapper{Cluster: s.Cluster(), Layout: MustParseLayout("csbnh")}
	mapped := 0
	for step := 0; step <= steps; step++ {
		if step > 0 {
			s = deriveRandom(t, r, s, step%4, specs, step)
		}
		if step == steps/2 {
			m.Layout = MustParseLayout("nbsNL3L2L1ch")
		}
		m.Cluster = s.Cluster()
		m.Opts = optCycle[step%len(optCycle)]
		np := 1 + r.Intn(2*s.NumNodes())

		got, errGot := m.Map(np)
		fresh := &Mapper{Cluster: s.Cluster(), Layout: m.Layout, Opts: m.Opts}
		want, errWant := fresh.Map(np)
		ref, errRef := fresh.MapReference(np)
		if errGot != nil || errWant != nil || errRef != nil {
			if errGot == nil || errWant == nil || errRef == nil ||
				errGot.Error() != errWant.Error() || errGot.Error() != errRef.Error() {
				t.Fatalf("step %d (epoch %d, np %d): reused %v, fresh %v, reference %v",
					step, s.Epoch(), np, errGot, errWant, errRef)
			}
			if !errors.Is(errGot, ErrOversubscribe) && !errors.Is(errGot, ErrNoResources) {
				t.Fatalf("step %d: unexpected error %v", step, errGot)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (epoch %d, np %d): reused mapper diverged from a fresh one", step, s.Epoch(), np)
		}
		if !sameMaps(got, ref) {
			t.Fatalf("step %d (epoch %d, np %d): reused mapper diverged from MapReference", step, s.Epoch(), np)
		}
		if err := got.Validate(s.Cluster()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mapped++
	}
	if mapped < steps*3/4 {
		t.Fatalf("only %d of %d epochs mapped; the chain exercises too little", mapped, steps+1)
	}
}

// refreshSiblings returns a mapper warmed on an n-node snapshot and a
// function that re-points it at the other of two siblings differing only
// in node k, then maps 16 ranks.
func refreshSiblings(t *testing.T, n, k int) (*Mapper, func()) {
	t.Helper()
	s1 := cluster.SnapshotOf(cluster.Homogeneous(n, nehalem(t)))
	s2, changed := s1.FailPUs(k, hw.NewCPUSet(0, 1))
	if changed == 0 {
		t.Fatal("FailPUs changed nothing")
	}
	m := &Mapper{Cluster: s1.Cluster(), Layout: MustParseLayout("csbnh")}
	if _, err := m.Map(16); err != nil {
		t.Fatal(err)
	}
	siblings, i := [2]*cluster.Snapshot{s1, s2}, 0
	swap := func() {
		i++
		m.Cluster = siblings[i%2].Cluster()
		if _, err := m.Map(16); err != nil {
			t.Fatal(err)
		}
	}
	return m, swap
}

// TestRefreshResolvesOnlyTouchedNodes: after a swap to a sibling that
// differs in node k, every other node keeps the topology and the shared
// shape it had, node k reads its new topology, the tree and its arrays
// are refreshed in place, and the cost of a swap does not grow with the
// node count.
func TestRefreshResolvesOnlyTouchedNodes(t *testing.T) {
	const n, k = 4096, 1234
	m, swap := refreshSiblings(t, n, k)
	tree := m.state.tree
	topos := append([]*hw.Topology(nil), tree.topos...)
	shape := tree.shapes[0]
	swap()
	if m.state.tree != tree || &m.state.tree.topos[0] != &tree.topos[0] || &m.state.tree.shapes[0] != &tree.shapes[0] {
		t.Error("swap replaced the dense tree instead of refreshing it in place")
	}
	for i, topo := range m.state.tree.topos {
		if m.state.tree.shapes[i] != shape {
			t.Fatalf("node %d lost the shared shape", i)
		}
		if i == k {
			if topo == topos[i] || topo != m.Cluster.Node(k).Topo {
				t.Fatal("touched node kept its stale topology")
			}
		} else if topo != topos[i] {
			t.Fatalf("untouched node %d got a new topology", i)
		}
	}

	measure := func(nodes int) (allocs, bytesPerOp float64) {
		_, swap := refreshSiblings(t, nodes, nodes/3)
		allocs = testing.AllocsPerRun(20, swap)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			swap()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(256)
	bigAllocs, bigBytes := measure(n)
	t.Logf("256 nodes: %.1f allocs, %.0f B per swap; %d nodes: %.1f allocs, %.0f B", smallAllocs, smallBytes, n, bigAllocs, bigBytes)
	if bigBytes > smallBytes+8<<10 {
		t.Errorf("bytes per swap: %d nodes %.0f vs 256 nodes %.0f", n, bigBytes, smallBytes)
	}
	if bigAllocs > smallAllocs+2 {
		t.Errorf("allocs per swap: %d nodes %.1f vs 256 nodes %.1f", n, bigAllocs, smallAllocs)
	}
}
