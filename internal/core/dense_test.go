package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// failSomething applies a random availability mutation through the
// cluster's failure API: a whole node or a handful of its PUs.
func failSomething(r *rand.Rand, c *cluster.Cluster) {
	node := r.Intn(c.NumNodes())
	if r.Intn(2) == 0 {
		c.FailNode(node)
		return
	}
	pus := c.Node(node).Topo.Root.UsablePUs()
	if len(pus) == 0 {
		return
	}
	set := &hw.CPUSet{}
	for _, pu := range pus {
		if r.Intn(3) == 0 {
			set.Set(pu.OS)
		}
	}
	c.FailPUs(node, set)
}

// TestQuickMapMatchesReferenceAfterFailures is the differential property
// test of the optimized engine's cache invalidation: one Mapper is reused
// across FailNode/FailPUs mutations (so its dense trees, pruned-shape
// cache entries, and usable-PU lists must be revalidated via the topology
// generation counter), and after every mutation its output must equal the
// naive cache-free reference built from scratch.
func TestQuickMapMatchesReferenceAfterFailures(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCluster(r)
		layout := randomLayout(r)
		opts := Options{
			Oversubscribe: r.Intn(2) == 1,
			PEsPerProc:    1 + r.Intn(2),
		}
		m, err := NewMapper(c, layout, opts)
		if err != nil {
			return false
		}
		rounds := 1 + r.Intn(3)
		for round := 0; round < rounds; round++ {
			if round > 0 {
				failSomething(r, c)
			}
			np := 1 + r.Intn(2*c.TotalUsablePUs()+2)
			got, errA := m.Map(np) // reused mapper: cached state + invalidation
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
// share ONE pruned shape (built once, by structural signature), and the
// per-node views must share it too.
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
	if len(tree.views) != 16 {
		t.Fatalf("views = %d", len(tree.views))
	}
	first := tree.views[0].shape
	for i, v := range tree.views {
		if v.shape != first {
			t.Fatalf("node %d has its own pruned shape; expected one shared shape", i)
		}
	}
}

// TestViewInvalidatedByFailure: a view cached for a topology is rebuilt
// after the topology's generation changes, and stale usable-PU lists never
// leak into a new mapping.
func TestViewInvalidatedByFailure(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	c := cluster.Homogeneous(2, sp)
	m, err := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Map(8)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := c.Node(0).Topo.Generation()
	if !c.FailNode(0) {
		t.Fatal("FailNode returned false")
	}
	if g := c.Node(0).Topo.Generation(); g == gen0 {
		t.Fatal("FailNode did not advance the generation counter")
	}
	after, err := m.Map(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after.Placements {
		if after.Placements[i].Node == 0 {
			t.Fatal("rank placed on failed node: stale cached view")
		}
	}
	if sameMaps(before, after) {
		t.Fatal("map unchanged after failing a node")
	}
	if err := after.Validate(c); err != nil {
		t.Fatal(err)
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
