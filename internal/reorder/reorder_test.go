package reorder

import (
	"context"
	"reflect"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
	"lama/internal/place"
)

func setup(t *testing.T, layout string, nodes, np int) (*cluster.Cluster, *core.Map, *netsim.Model) {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(nodes, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, netsim.NewModel(netsim.NewFlat())
}

func TestReorderImprovesScatteredRing(t *testing.T) {
	// A cyclic mapping of a ring is pessimal: every neighbor pair crosses
	// nodes. Reordering (without touching processors) must reunite them.
	c, m, mo := setup(t, "ncsbh", 2, 24)
	tm := commpat.Ring(24, 1<<20)
	res, err := Optimize(c, m, mo, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.After >= res.Before {
		t.Fatalf("no improvement: %v -> %v", res.Before, res.After)
	}
	if res.Swaps == 0 {
		t.Fatal("no swaps recorded")
	}
	// The reordered map must still be a valid plan on the same slots.
	if err := res.Map.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Same multiset of (node, PU) slots.
	type key struct{ node, pu int }
	before, after := map[key]int{}, map[key]int{}
	for i := range m.Placements {
		before[key{m.Placements[i].Node, m.Placements[i].PU()}]++
		after[key{res.Map.Placements[i].Node, res.Map.Placements[i].PU()}]++
	}
	for k, n := range before {
		if after[k] != n {
			t.Fatalf("slot multiset changed at %v", k)
		}
	}
	// Verify the claimed cost against an independent evaluation.
	rep, err := mo.Evaluate(c, res.Map, tm)
	if err != nil {
		t.Fatal(err)
	}
	if diff := rep.TotalTime - res.After; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("claimed %v, evaluated %v", res.After, rep.TotalTime)
	}
}

func TestReorderLeavesGoodMappingAlone(t *testing.T) {
	// A packed ring is already near-optimal; reordering must not hurt.
	c, m, mo := setup(t, "csbnh", 2, 24)
	tm := commpat.Ring(24, 1<<20)
	res, err := Optimize(c, m, mo, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.After > res.Before {
		t.Fatalf("reorder made it worse: %v -> %v", res.Before, res.After)
	}
}

func TestReorderPermIsPermutation(t *testing.T) {
	c, m, mo := setup(t, "ncsbh", 2, 12)
	tm := commpat.RandomPairs(12, 30, 1000, 3)
	res, err := Optimize(c, m, mo, tm, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 12)
	for _, p := range res.Perm {
		if p < 0 || p >= 12 || seen[p] {
			t.Fatalf("not a permutation: %v", res.Perm)
		}
		seen[p] = true
	}
}

func TestReorderErrors(t *testing.T) {
	c, m, mo := setup(t, "csbnh", 1, 4)
	if _, err := Optimize(c, &core.Map{}, mo, commpat.Ring(4, 1), 0); err == nil {
		t.Fatal("empty map")
	}
	if _, err := Optimize(c, m, mo, commpat.Ring(5, 1), 0); err == nil {
		t.Fatal("size mismatch")
	}
}

// TestPermNamesOldRank pins what Perm means on E19's shuffled cliques,
// where Perm is not an involution: application rank r runs on the
// processor old rank Perm[r] held, every placement field but Rank intact.
func TestPermNamesOldRank(t *testing.T) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(c, m, netsim.NewModel(netsim.NewFlat()), shuffledCliques(64, 8, 1<<20, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	involution := true
	for r, p := range res.Perm {
		involution = involution && res.Perm[p] == r
	}
	if involution {
		t.Fatalf("Perm is an involution, the case cannot tell Perm from its inverse: %v", res.Perm)
	}
	for r, p := range res.Perm {
		want := m.Placements[p]
		want.Rank = r
		if got := res.Map.Placements[r]; !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: placement %+v, want old rank %d's %+v", r, got, p, want)
		}
	}
}

// TestPassInPipeline runs Pass as a pipeline stage after the lama policy.
func TestPassInPipeline(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	pol, ok := place.Lookup("lama")
	if !ok {
		t.Fatal("lama policy not registered")
	}
	tm := commpat.Ring(24, 1<<20)
	req := &place.Request{Cluster: c, NP: 24, Layout: core.MustParseLayout("ncsbh"), Traffic: tm}
	placed, err := place.Place(context.Background(), "lama", req)
	if err != nil {
		t.Fatal(err)
	}

	noTraffic := *req
	noTraffic.Traffic = nil
	pl := &place.Pipeline{Policy: pol, Stages: []place.Stage{&Pass{}}}
	if _, err := pl.Run(context.Background(), &noTraffic); err == nil {
		t.Fatal("a reorder stage without traffic must fail")
	}

	// A nil Model prices on the flat network, and OnResult sees exactly
	// what Optimize returns for the placed map.
	var got *Result
	pl.Stages = []place.Stage{&Pass{OnResult: func(r *Result) { got = r }}}
	out, err := pl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Optimize(c, placed, netsim.NewModel(netsim.NewFlat()), tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("OnResult got %+v, want %+v", got, want)
	}
	if want.Swaps == 0 {
		t.Fatal("a cyclic ring must reorder")
	}
	if out != got.Map {
		t.Fatal("the stage's map is not the result's")
	}
	if err := out.Validate(c); err != nil {
		t.Fatal(err)
	}
}
