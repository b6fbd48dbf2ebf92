package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// failSomething derives a snapshot with a random availability loss: a
// whole node or a handful of its PUs. It returns s itself when the event
// removes no usable PU.
func failSomething(r *rand.Rand, s *cluster.Snapshot) *cluster.Snapshot {
	node := r.Intn(s.NumNodes())
	if r.Intn(2) == 0 {
		next, _ := s.FailNode(node)
		return next
	}
	set := &hw.CPUSet{}
	for _, pu := range s.Cluster().Node(node).Topo.UsablePUs() {
		if r.Intn(3) == 0 {
			set.Set(pu.OS)
		}
	}
	next, _ := s.FailPUs(node, set)
	return next
}

// TestQuickMapMatchesReferenceAfterFailures is the differential property
// test of the optimized engine's cache reuse: one Mapper is re-pointed at
// each snapshot derived by FailNode/FailPUs (so its dense trees,
// pruned-shape cache entries, and usable-PU lists must follow the new
// topologies), and after every derivation its output must equal the naive
// cache-free reference built from scratch.
func TestQuickMapMatchesReferenceAfterFailures(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := cluster.SnapshotOf(randomCluster(r))
		layout := randomLayout(r)
		opts := Options{
			Oversubscribe: r.Intn(2) == 1,
			PEsPerProc:    1 + r.Intn(2),
		}
		m, err := NewMapper(s.Cluster(), layout, opts)
		if err != nil {
			return false
		}
		rounds := 1 + r.Intn(3)
		for round := 0; round < rounds; round++ {
			if round > 0 {
				s = failSomething(r, s)
				m.Cluster = s.Cluster()
			}
			c := s.Cluster()
			np := 1 + r.Intn(2*c.TotalUsablePUs()+2)
			got, errA := m.Map(np) // reused mapper: cached state, refreshed
			fresh, err := NewMapper(c, layout, opts)
			if err != nil {
				return false
			}
			want, errB := fresh.MapReference(np) // naive oracle, built from scratch
			if (errA == nil) != (errB == nil) {
				return false
			}
			if errA != nil {
				if !errors.Is(errA, ErrOversubscribe) && !errors.Is(errA, ErrNoResources) {
					return false
				}
				continue
			}
			if !sameMaps(got, want) || got.Validate(c) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMapperReuseAcrossLayouts: swapping the layout on an existing Mapper
// rebuilds the iteration state and matches a fresh mapper exactly.
func TestMapperReuseAcrossLayouts(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	c := cluster.Homogeneous(4, sp)
	m, err := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"scbnh", "ncsbh", "nbsNL3L2L1ch", "hcL1L2L3Nsbn", "scbnh"} {
		m.Layout = MustParseLayout(text)
		got, err := m.Map(48)
		if err != nil {
			t.Fatalf("layout %s: %v", text, err)
		}
		fresh, err := NewMapper(c, MustParseLayout(text), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MapReference(48)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMaps(got, want) {
			t.Fatalf("layout %s: reused mapper diverged from fresh reference", text)
		}
	}
}

// TestHomogeneousNodesShareShape: the nodes of a homogeneous cluster must
// share ONE pruned shape (built once, by structural signature).
func TestHomogeneousNodesShareShape(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	c := cluster.Homogeneous(16, sp)
	m, err := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map(64); err != nil {
		t.Fatal(err)
	}
	tree := m.state.tree
	if len(tree.shapes) != 16 {
		t.Fatalf("shapes = %d", len(tree.shapes))
	}
	for i, shape := range tree.shapes {
		if shape != tree.shapes[0] {
			t.Fatalf("node %d has its own pruned shape; expected one shared shape", i)
		}
	}
}

// topologyMutators calls each hw.Topology mutator once on t.
var topologyMutators = map[string]func(t *hw.Topology){
	"SetAvailable":  func(t *hw.Topology) { t.SetAvailable(hw.LevelCore, 0, false) },
	"Restrict":      func(t *hw.Topology) { t.Restrict(hw.NewCPUSet(0)) },
	"Offline":       func(t *hw.Topology) { t.Offline(hw.NewCPUSet(0)) },
	"UnmarshalJSON": func(t *hw.Topology) { _ = t.UnmarshalJSON([]byte(`{"level":"machine"}`)) },
}

// TestFrozenTopologyFailsLoudly: a topology a Mapper has mapped, or one
// reached through a snapshot however it was made, panics on every
// mutator and is left as it was; its Clone is mutable.
func TestFrozenTopologyFailsLoudly(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	mapped := cluster.Homogeneous(2, sp)
	mustMap(t, mapped, "csbnh", Options{}, 8)
	captured := cluster.SnapshotOf(cluster.Homogeneous(2, sp))
	homog := cluster.HomogeneousSnapshot(2, sp)
	failedNode, _ := homog.FailNode(0)
	failedPUs, _ := homog.FailPUs(0, hw.NewCPUSet(3))
	grown := homog.AppendNode(&cluster.Node{Name: "spare", Topo: hw.New(sp)})
	for name, topo := range map[string]*hw.Topology{
		"mapped":              mapped.Node(0).Topo,
		"SnapshotOf":          captured.Cluster().Node(0).Topo,
		"HomogeneousSnapshot": homog.Cluster().Node(0).Topo,
		"FailNode":            failedNode.Cluster().Node(0).Topo,
		"FailPUs":             failedPUs.Cluster().Node(0).Topo,
		"AppendNode":          grown.Cluster().Node(2).Topo,
	} {
		usable, shape := topo.NumUsablePUs(), topo.ShapeSig()
		for op, mutate := range topologyMutators {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s on a frozen topology did not panic", name, op)
					}
				}()
				mutate(topo)
			}()
		}
		if topo.NumUsablePUs() != usable || topo.ShapeSig() != shape {
			t.Errorf("%s: a refused mutation changed the topology", name)
		}
		for _, mutate := range topologyMutators {
			mutate(topo.Clone()) // a clone is never frozen: must not panic
		}
	}
}

// allocClusterAndMapper builds the standard benchmark topology for the
// allocation-regression tests.
func allocClusterAndMapper(t *testing.T, layout string) *Mapper {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	c := cluster.Homogeneous(16, sp)
	m, err := NewMapper(c, MustParseLayout(layout), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMapAllocationsSteadyState pins the allocation count of the hot
// path: after the first call warms the mapper's reusable state, a Map run
// performs only the handful of allocations that escape to the caller (the
// Map struct, the placement slice, and the shared PU backing array). A
// regression reintroducing per-coordinate maps or per-placement slices
// shows up here as dozens-to-thousands of allocations.
func TestMapAllocationsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		layout string
		np     int
	}{
		{"scbnh", 256},
		{"nbsNL3L2L1ch", 256},
	} {
		m := allocClusterAndMapper(t, tc.layout)
		if _, err := m.Map(tc.np); err != nil { // warm the reusable state
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := m.Map(tc.np); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("layout %s: Map(%d) allocates %.0f objects/run in steady state, want <= 8",
				tc.layout, tc.np, allocs)
		}
	}
}
