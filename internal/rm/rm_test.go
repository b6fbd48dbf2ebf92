package rm

import (
	"errors"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

func pool(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep") // 8 cores, 16 PUs per node
	if !ok {
		t.Fatal("preset missing")
	}
	return cluster.Homogeneous(nodes, sp)
}

// busyCores counts the pool's cores held by live allocations.
func busyCores(m *Manager) int {
	n := 0
	for _, busy := range m.busy {
		n += len(busy)
	}
	return n
}

func TestWholeNodeAllocation(t *testing.T) {
	m := NewManager(pool(t, 4))
	a, err := m.Alloc(WholeNode, 12) // needs 2 full 8-core nodes
	if err != nil {
		t.Fatal(err)
	}
	if a.Granted.NumNodes() != 2 {
		t.Fatalf("granted %d nodes, want 2", a.Granted.NumNodes())
	}
	for _, n := range a.Granted.Nodes {
		if n.Topo.NumUsablePUs() != 16 {
			t.Fatalf("whole-node grant restricted: %d usable", n.Topo.NumUsablePUs())
		}
		if n.Slots != 8 {
			t.Fatalf("slots = %d", n.Slots)
		}
	}
	if busyCores(m) != 16 {
		t.Fatalf("busy cores = %d, want 16", busyCores(m))
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if busyCores(m) != 0 {
		t.Fatal("release did not return cores")
	}
}

func TestCoreGranularSplitsNodes(t *testing.T) {
	m := NewManager(pool(t, 2))
	// Take 4 cores: all from node0.
	a1, err := m.Alloc(CoreGranular, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Granted.NumNodes() != 1 || a1.Granted.Nodes[0].Topo.NumUsablePUs() != 8 {
		t.Fatalf("a1 wrong: %s", a1.Granted.Summary())
	}
	// Take 8 more: 4 remaining on node0 + 4 on node1 — the paper's
	// "half of node A and half of node B" scenario.
	a2, err := m.Alloc(CoreGranular, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Granted.NumNodes() != 2 {
		t.Fatalf("a2 nodes = %d", a2.Granted.NumNodes())
	}
	// The two allocations must not overlap.
	n0a, _ := a1.Granted.NodeByName("node0")
	n0b, _ := a2.Granted.NodeByName("node0")
	both := n0a.Topo.AllowedSet().Clone()
	both.Or(n0b.Topo.AllowedSet())
	if both.Count() != n0a.Topo.AllowedSet().Count()+n0b.Topo.AllowedSet().Count() {
		t.Fatalf("overlap: %s vs %s", n0a.Topo.AllowedSet(), n0b.Topo.AllowedSet())
	}
	if busyCores(m) != 12 {
		t.Fatalf("busy = %d", busyCores(m))
	}
	if len(m.live) != 2 {
		t.Fatal("live count")
	}
}

func TestAllocInsufficient(t *testing.T) {
	m := NewManager(pool(t, 1))
	if _, err := m.Alloc(CoreGranular, 9); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	// Failed allocation must not leak cores.
	if busyCores(m) != 0 {
		t.Fatalf("busy = %d after failed alloc", busyCores(m))
	}
	if _, err := m.Alloc(WholeNode, 9); !errors.Is(err, ErrInsufficient) {
		t.Fatal("whole-node over-ask should fail")
	}
	if _, err := m.Alloc(CoreGranular, 0); err == nil {
		t.Fatal("zero slots should fail")
	}
	if _, err := m.Alloc(Policy(99), 1); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestWholeNodeSkipsPartiallyBusy(t *testing.T) {
	m := NewManager(pool(t, 2))
	if _, err := m.Alloc(CoreGranular, 1); err != nil {
		t.Fatal(err)
	}
	// node0 is partially busy; a whole-node request must come from node1.
	a, err := m.Alloc(WholeNode, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Granted.Nodes[0].Name != "node1" {
		t.Fatalf("granted %s, want node1", a.Granted.Nodes[0].Name)
	}
}

func TestReleaseErrors(t *testing.T) {
	m := NewManager(pool(t, 1))
	if err := m.Release(nil); err == nil {
		t.Fatal("nil release should fail")
	}
	a, err := m.Alloc(CoreGranular, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a); err == nil {
		t.Fatal("double release should fail")
	}
}

func TestRestrictedPoolRespected(t *testing.T) {
	p := pool(t, 1)
	p.Nodes[0].Topo.Restrict(hw.CPUSetRange(0, 3)) // thread-major: cores 0-3 half-restricted
	m := NewManager(p)
	// Thread-major numbering: PUs 0-3 are the first threads of cores 0-3,
	// so exactly 4 cores remain usable.
	a, err := m.Alloc(CoreGranular, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(CoreGranular, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("fifth core granted: %v", err)
	}
	if got := a.Granted.Nodes[0].Topo.AllowedSet(); !got.IsSubset(hw.CPUSetRange(0, 3)) {
		t.Fatalf("grant %s escapes restriction", got)
	}
}

func TestPolicyString(t *testing.T) {
	if WholeNode.String() != "whole-node" || CoreGranular.String() != "core-granular" {
		t.Fatal("policy names")
	}
	if !strings.HasPrefix(Policy(42).String(), "policy(") {
		t.Fatal("unknown policy name")
	}
}
