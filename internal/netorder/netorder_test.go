package netorder

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
	_ "lama/internal/place/all"
	"lama/internal/torus"
)

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	sp, ok := hw.Preset("fig2")
	if !ok {
		t.Fatal("fig2 preset missing")
	}
	return cluster.Homogeneous(n, sp)
}

func mapJob(t *testing.T, c *cluster.Cluster, np int) *core.Map {
	t.Helper()
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scatterMap spreads a ring's consecutive ranks across distant nodes so
// the network passes have something to fix: ranks are dealt round-robin
// over the nodes ("ncsbh"-style), the worst case for neighbor traffic.
func scatterMap(t *testing.T, c *cluster.Cluster, np int) *core.Map {
	t.Helper()
	mapper, err := core.NewMapper(c, core.MustParseLayout("ncsbh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func evalJ(t *testing.T, c *cluster.Cluster, mo *netsim.Model, tm *commpat.Matrix, m *core.Map) float64 {
	t.Helper()
	rep, err := mo.Evaluate(c, m, tm)
	if err != nil {
		t.Fatal(err)
	}
	return rep.TotalTime
}

// searches names both candidate rules for the tests that run each.
var searches = map[string]Search{"PartnerNode": PartnerNode, "AllPairs": AllPairs}

func TestRefineImprovesScatteredRing(t *testing.T) {
	c := testCluster(t, 8)
	np := 64
	mo := netsim.NewModel(netsim.NewFatTree(2))
	tm := commpat.Ring(np, 4096)
	for name, search := range searches {
		t.Run(name, func(t *testing.T) {
			m := scatterMap(t, c, np)
			out, res, err := RefineMap(context.Background(), c, mo, tm, m, search, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Swaps == 0 {
				t.Fatal("scattered ring should offer improving swaps")
			}
			if res.JAfter >= res.JBefore {
				t.Fatalf("J did not improve: %g -> %g", res.JBefore, res.JAfter)
			}
			// The reported J values must match a from-scratch oracle evaluation.
			if got := evalJ(t, c, mo, tm, out); !closeRel(got, res.JAfter) {
				t.Fatalf("JAfter %g, oracle %g", res.JAfter, got)
			}
			if got := evalJ(t, c, mo, tm, m); !closeRel(got, res.JBefore) {
				t.Fatalf("JBefore %g, oracle %g", res.JBefore, got)
			}
			// Rank permutation only: same multiset of processor claims.
			if got, want := claimSet(out), claimSet(m); !reflect.DeepEqual(got, want) {
				t.Fatal("refinement changed the processor claim set")
			}
			if err := out.Validate(c); err != nil {
				t.Fatal(err)
			}
			// Input map untouched.
			if evalJ(t, c, mo, tm, m) != res.JBefore {
				t.Fatal("input map mutated")
			}
			// A converged map is a fixed point: one quiescent sweep.
			again, ares, err := RefineMap(context.Background(), c, mo, tm, out, search, 0)
			if err != nil || again != out || ares.Swaps != 0 || ares.Sweeps != 1 {
				t.Fatalf("refining the result again: %+v, %v", ares, err)
			}
		})
	}
}

func closeRel(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > a {
		scale = b
	}
	return d <= 1e-9*scale || d <= 1e-9
}

func claimSet(m *core.Map) map[[2]int]int {
	out := map[[2]int]int{}
	for i := range m.Placements {
		p := &m.Placements[i]
		out[[2]int{p.Node, p.PU()}]++
	}
	return out
}

func TestRefineNoOpOnPackedRing(t *testing.T) {
	c := testCluster(t, 4)
	np := 48
	m := mapJob(t, c, np) // packed: ring neighbors already adjacent
	mo := netsim.NewModel(netsim.NewFlat())
	tm := commpat.Ring(np, 1024)
	for name, search := range searches {
		out, res, err := RefineMap(context.Background(), c, mo, tm, m, search, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Swaps == 0 && out != m {
			t.Fatalf("%s: no-swap refinement must return the input map", name)
		}
		if res.JAfter > res.JBefore {
			t.Fatalf("%s: J regressed: %g -> %g", name, res.JBefore, res.JAfter)
		}
	}
}

func TestRefineErrors(t *testing.T) {
	c := testCluster(t, 1)
	m := mapJob(t, c, 4)
	mo := netsim.NewModel(netsim.NewFlat())
	for name, search := range searches {
		if _, _, err := RefineMap(context.Background(), c, mo, commpat.Ring(4, 1), &core.Map{}, search, 0); err == nil {
			t.Fatalf("%s: empty map accepted", name)
		}
		if _, _, err := RefineMap(context.Background(), c, mo, commpat.Ring(5, 1), m, search, 0); err == nil {
			t.Fatalf("%s: traffic/map size mismatch accepted", name)
		}
	}
}

// sweepCtx is a context canceled after its first n Err checks, which
// RefineMap makes once before each sweep.
type sweepCtx struct {
	context.Context
	n int
}

func (c *sweepCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestRefineCanceled: a canceled refinement reports the cancellation with
// the best map found so far — the input map when canceled up front, the
// one-sweep map when canceled after the first sweep — and the stage fails
// with it instead of passing a half-refined map on as success.
func TestRefineCanceled(t *testing.T) {
	c := testCluster(t, 8)
	np := 64
	mo := netsim.NewModel(netsim.NewFatTree(2))
	tm := commpat.Ring(np, 4096)
	m := scatterMap(t, c, np)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, search := range searches {
		out, res, err := RefineMap(canceled, c, mo, tm, m, search, 0)
		if !errors.Is(err, context.Canceled) || out != m || res.Sweeps != 0 || res.JAfter != res.JBefore {
			t.Fatalf("%s: pre-canceled: err %v, input returned %v, %+v", name, err, out == m, res)
		}
		full, fres, err := RefineMap(context.Background(), c, mo, tm, m, search, 0)
		if err != nil || fres.Sweeps < 3 {
			t.Fatalf("%s: the case needs a run of 3+ sweeps, got %+v, %v", name, fres, err)
		}
		one, ores, err := RefineMap(context.Background(), c, mo, tm, m, search, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, res, err = RefineMap(&sweepCtx{Context: context.Background(), n: 1}, c, mo, tm, m, search, 0)
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, ores) || !reflect.DeepEqual(out, one) {
			t.Fatalf("%s: canceled after one sweep: err %v, %+v, want the one-sweep %+v", name, err, res, ores)
		}
		if reflect.DeepEqual(out, full) {
			t.Fatalf("%s: one sweep already reaches the converged map", name)
		}
	}
	req := &place.Request{Cluster: c, NP: np, Traffic: tm}
	if _, err := (&Refine{Net: netsim.NewFatTree(2)}).Apply(canceled, req, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("stage on a canceled context: err %v", err)
	}
}

// TestRefineConverges runs both searches to convergence over the golden
// cases and checks, on a fresh evaluator of the returned map, that no
// candidate swap of the search still lowers J by more than the threshold.
func TestRefineConverges(t *testing.T) {
	for _, gc := range goldenCases(t) {
		m := goldenMap(t, gc)
		mo := netsim.NewModel(gc.net)
		for name, search := range searches {
			out, res, err := RefineMap(context.Background(), gc.c, mo, gc.tm, m, search, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", gc.name, name, err)
			}
			pr, err := mo.Pricing(gc.c)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := netsim.NewCost(pr, gc.tm, out)
			if err != nil {
				t.Fatal(err)
			}
			np := out.NumRanks()
			for a := 0; a < np; a++ {
				// PartnerNode's candidates: the ranks on the node of a's
				// heaviest off-node partner, first wins ties.
				node, w := -1, 0.0
				peers, outB, inB := gc.tm.Row(a)
				for k, p := range peers {
					if n := cost.NodeOf(int(p)); n != cost.NodeOf(a) && outB[k]+inB[k] > w {
						node, w = n, outB[k]+inB[k]
					}
				}
				for b := 0; b < np; b++ {
					if search == AllPairs && b <= a || search == PartnerNode && cost.NodeOf(b) != node {
						continue
					}
					if d := cost.DeltaSwap(a, b); d < -swapEps {
						t.Fatalf("%s %s after %d sweeps: swap (%d, %d) still lowers J by %g",
							gc.name, name, res.Sweeps, a, b, -d)
					}
				}
			}
		}
	}
}

// TestRefinePermutesPlacements checks, for both searches over the golden
// cases, that the returned map holds the input's placements permuted, each
// intact but for Rank; E19's shuffled cliques are the case whose
// permutation is not an involution, so it cannot pass inverted.
func TestRefinePermutesPlacements(t *testing.T) {
	involution := map[Search]bool{}
	for _, gc := range goldenCases(t) {
		m := goldenMap(t, gc)
		for name, search := range searches {
			out, _, err := RefineMap(context.Background(), gc.c, netsim.NewModel(gc.net), gc.tm, m, search, gc.maxSweeps)
			if err != nil {
				t.Fatalf("%s %s: %v", gc.name, name, err)
			}
			perm := oldRanks(t, m, out)
			seen := make([]bool, len(perm))
			inv := true
			for r, o := range perm {
				if seen[o] {
					t.Fatalf("%s %s: old rank %d placed twice", gc.name, name, o)
				}
				seen[o] = true
				want := m.Placements[o]
				want.Rank = r
				if got := out.Placements[r]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: rank %d: placement %+v, want old rank %d's %+v", gc.name, name, r, got, o, want)
				}
				inv = inv && perm[o] == r
			}
			if gc.name == "E19/cliques" {
				involution[search] = inv
			}
		}
	}
	for name, search := range searches {
		if v, ok := involution[search]; !ok || v {
			t.Errorf("%s: E19/cliques permutation is an involution (or missing): the case cannot tell a permutation from its inverse", name)
		}
	}
}

// TestRefineLeavesGoodMappingAlone: a packed ring on two fig2 nodes is
// already near-optimal, and neither search may make it worse.
func TestRefineLeavesGoodMappingAlone(t *testing.T) {
	c := testCluster(t, 2)
	m := mapJob(t, c, 24)
	mo := netsim.NewModel(netsim.NewFlat())
	tm := commpat.Ring(24, 1<<20)
	for name, search := range searches {
		_, res, err := RefineMap(context.Background(), c, mo, tm, m, search, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.JAfter > res.JBefore {
			t.Fatalf("%s: refinement made it worse: %g -> %g", name, res.JBefore, res.JAfter)
		}
	}
}

// TestRefineRanksArePermutation: a sweep-capped search over random pairs
// on a cyclic map returns the input's processors, each held by exactly
// one rank.
func TestRefineRanksArePermutation(t *testing.T) {
	c := testCluster(t, 2)
	m := scatterMap(t, c, 12)
	mo := netsim.NewModel(netsim.NewFlat())
	tm := commpat.RandomPairs(12, 30, 1000, 3)
	for name, search := range searches {
		out, _, err := RefineMap(context.Background(), c, mo, tm, m, search, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 12)
		for r, o := range oldRanks(t, m, out) {
			if o < 0 || o >= 12 || seen[o] {
				t.Fatalf("%s: rank %d takes old rank %d's processor twice or out of range", name, r, o)
			}
			seen[o] = true
		}
	}
}

// TestRefinePermNamesOldRank pins what the AllPairs result means on E19's
// shuffled cliques, whose permutation is not an involution: rank r runs on
// the processor old rank perm[r] held, every placement field but Rank
// intact.
func TestRefinePermNamesOldRank(t *testing.T) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	m := mapJob(t, c, 64)
	out, _, err := RefineMap(context.Background(), c, netsim.NewModel(netsim.NewFlat()), shuffledCliques(64, 8, 1<<20, 20), m, AllPairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	perm := oldRanks(t, m, out)
	involution := true
	for r, p := range perm {
		involution = involution && perm[p] == r
	}
	if involution {
		t.Fatalf("the permutation is an involution, the case cannot tell it from its inverse: %v", perm)
	}
	for r, p := range perm {
		want := m.Placements[p]
		want.Rank = r
		if got := out.Placements[r]; !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: placement %+v, want old rank %d's %+v", r, got, p, want)
		}
	}
}

// TestRefineInPipeline runs Refine as a pipeline stage after the lama
// policy: it fails without traffic, and otherwise returns RefineMap's map
// for the placed map and reports RefineMap's result in its netsim/refine
// event.
func TestRefineInPipeline(t *testing.T) {
	c := testCluster(t, 2)
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
	pl := &place.Pipeline{Policy: pol, Stages: []place.Stage{&Refine{Net: netsim.NewFlat()}}}
	if _, err := pl.Run(context.Background(), &noTraffic); err == nil {
		t.Fatal("a refine stage without traffic must fail")
	}

	sink := obs.NewMemorySink()
	req.Opts.Obs = &obs.Observer{Sink: sink, Clock: func() int64 { return 0 }}
	out, err := pl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, res, err := RefineMap(context.Background(), c, netsim.NewModel(netsim.NewFlat()), tm, placed, PartnerNode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("a cyclic ring must be refined")
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatal("the stage's map is not RefineMap's")
	}
	var evs []obs.Event
	for _, e := range sink.Events() {
		if e.Source == obs.SrcNetSim && e.Name == obs.EvRefine {
			evs = append(evs, e)
		}
	}
	if len(evs) != 1 {
		t.Fatalf("netsim events %v, want one refine", sink.Names(obs.SrcNetSim))
	}
	got := RefineResult{
		JBefore: field(t, evs[0], "j_before").(float64), JAfter: field(t, evs[0], "j_after").(float64),
		Swaps: field(t, evs[0], "swaps").(int), Sweeps: field(t, evs[0], "sweeps").(int),
	}
	if got != *res {
		t.Fatalf("refine event reports %+v, RefineMap %+v", got, *res)
	}
	if err := out.Validate(c); err != nil {
		t.Fatal(err)
	}
}

// TestOrderNodesImprovesShuffledStencil builds a map whose node-groups
// are deliberately mis-ordered on a fat-tree (consecutive groups land in
// different leaves) and checks the ordering pass brings J down without
// touching intra-node structure.
// moveGroups moves every rank on node k to node perm[k] the way OrderNodes
// moves a node-group: the same PUs, and the same leaf object resolved on
// the new node's tree.
func moveGroups(c *cluster.Cluster, m *core.Map, perm []int) {
	for i := range m.Placements {
		p := &m.Placements[i]
		nn := perm[p.Node]
		p.Node, p.NodeName = nn, c.Nodes[nn].Name
		p.Leaf = c.Nodes[nn].Topo.ObjectAt(p.Leaf.Level, p.Leaf.Logical)
	}
}

func TestOrderNodesImprovesShuffledStencil(t *testing.T) {
	c := testCluster(t, 8)
	np := 96 // 12 PUs per fig2 node
	m := mapJob(t, c, np)
	// Shuffle which physical node hosts each group: 0..7 -> interleaved.
	moveGroups(c, m, []int{0, 4, 1, 5, 2, 6, 3, 7})
	mo := netsim.NewModel(netsim.NewFatTree(2))
	tm := commpat.Ring(np, 8192)

	out, res, err := OrderNodes(c, mo, tm, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedNodes == 0 || res.JAfter >= res.JBefore {
		t.Fatalf("ordering did not help: %+v", res)
	}
	if got := evalJ(t, c, mo, tm, out); !closeRel(got, res.JAfter) {
		t.Fatalf("JAfter %g, oracle %g", res.JAfter, got)
	}
	if got, want := len(out.Placements), len(m.Placements); got != want {
		t.Fatalf("rank count changed: %d -> %d", want, got)
	}
	// Groups moved wholesale: per-node rank sets permute, PU claims ride
	// along unchanged.
	for i := range out.Placements {
		if out.Placements[i].PU() != m.Placements[i].PU() {
			t.Fatalf("rank %d changed PU", i)
		}
	}
}

// TestOrderNodesAvoidsUnusableNodes: a failed node, or one with a socket
// off-line, keeps every PU's own availability flag, yet offers a group
// fewer usable PUs than a healthy node of the same shape. OrderNodes must
// never move a group onto it, and every rank it moves must take its leaf
// from the new node's tree. The job is mapped on a healthy cluster and its
// groups are shuffled over nodes 1-7 of one whose node 0 was built with
// the fault, so the greedy assignment is tempted by node 0 first.
func TestOrderNodesAvoidsUnusableNodes(t *testing.T) {
	faults := []struct {
		name  string
		apply func(c *cluster.Cluster)
	}{
		{"fail-node", func(c *cluster.Cluster) { c.Node(0).Topo.SetAvailable(hw.LevelMachine, 0, false) }},
		{"offline-socket", func(c *cluster.Cluster) { c.Node(0).Topo.SetAvailable(hw.LevelSocket, 0, false) }},
	}
	const np = 84 // nodes 0-6 full: 12 PUs per fig2 node
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			moved := 0
			for arity := 2; arity <= 4; arity++ {
				mo := netsim.NewModel(netsim.NewFatTree(arity))
				for seed := int64(0); seed < 8; seed++ {
					c := testCluster(t, 8)
					f.apply(c)
					mapper, err := core.NewMapper(testCluster(t, 8), core.MustParseLayout("hcsbn"), core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					m, err := mapper.Map(np)
					if err != nil {
						t.Fatal(err)
					}
					perm := rand.New(rand.NewSource(seed)).Perm(7)
					for i := range perm {
						perm[i]++
					}
					moveGroups(c, m, perm)
					if err := m.Validate(c); err != nil {
						t.Fatalf("input map: %v", err)
					}
					for _, tm := range []*commpat.Matrix{commpat.Ring(np, 8192), commpat.Stencil2D(12, 7, 8192, true)} {
						out, res, err := OrderNodes(c, mo, tm, m)
						if err != nil {
							t.Fatal(err)
						}
						moved += res.MovedNodes
						if err := out.Validate(c); err != nil {
							t.Fatalf("fat-tree:%d seed %d: ordered map invalid: %v", arity, seed, err)
						}
						for i := range out.Placements {
							p := &out.Placements[i]
							if p.Node == 0 {
								t.Fatalf("fat-tree:%d seed %d: rank %d moved onto unusable node 0", arity, seed, i)
							}
							if p.Leaf != c.Nodes[p.Node].Topo.ObjectAt(p.Leaf.Level, p.Leaf.Logical) {
								t.Fatalf("fat-tree:%d seed %d: rank %d keeps a leaf from another node's tree", arity, seed, i)
							}
						}
					}
				}
			}
			if moved == 0 {
				t.Fatal("no ordering moved a group: the check went untested")
			}
		})
	}
}

func TestOrderNodesRevertsWhenNoGain(t *testing.T) {
	c := testCluster(t, 4)
	np := 48
	m := mapJob(t, c, np) // already contiguous: ordering cannot help a flat net
	mo := netsim.NewModel(netsim.NewFlat())
	tm := commpat.Ring(np, 1024)
	out, res, err := OrderNodes(c, mo, tm, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedNodes != 0 && res.JAfter >= res.JBefore {
		t.Fatalf("kept a non-improving permutation: %+v", res)
	}
	if res.MovedNodes == 0 && out != m {
		t.Fatal("no-move ordering must return the input map")
	}
}

// TestDeterminism pins byte-identical repeatability: same inputs, same
// outputs, across repeated runs of ordering, refinement, and the staged
// pipeline (swap tie-breaking is first-minimal, ordering tie-breaking is
// lowest-index, so nothing depends on map iteration or randomness).
func TestDeterminism(t *testing.T) {
	c := testCluster(t, 8)
	np := 64
	mo := netsim.NewModel(netsim.NewDragonfly(2))
	tm := commpat.Ring(np, 4096)

	type outcome struct {
		placements []core.Placement
		order      Result
		refine     RefineResult
	}
	run := func() outcome {
		m := scatterMap(t, c, np)
		o1, r1, err := OrderNodes(c, mo, tm, m)
		if err != nil {
			t.Fatal(err)
		}
		o2, r2, err := RefineMap(context.Background(), c, mo, tm, o1, PartnerNode, 0)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{o2.Placements, *r1, *r2}
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if !reflect.DeepEqual(first.order, again.order) {
			t.Fatalf("order result differs: %+v vs %+v", first.order, again.order)
		}
		if !reflect.DeepEqual(first.refine, again.refine) {
			t.Fatalf("refine result differs: %+v vs %+v", first.refine, again.refine)
		}
		if len(first.placements) != len(again.placements) {
			t.Fatal("length differs")
		}
		for r := range first.placements {
			a, b := &first.placements[r], &again.placements[r]
			if a.Node != b.Node || a.PU() != b.PU() {
				t.Fatalf("rank %d placement differs: %d/%d vs %d/%d",
					r, a.Node, a.PU(), b.Node, b.PU())
			}
		}
	}
}

// TestStagesComposeWithPolicies runs netorder.Stage + Refine as pipeline
// post-passes behind registered policies, on both fat-tree and torus.
func TestStagesComposeWithPolicies(t *testing.T) {
	nets := map[string]netsim.Network{
		"fat-tree": netsim.NewFatTree(2),
		"torus":    netsim.NewTorus3D(torus.Dims{X: 4, Y: 2, Z: 1}),
	}
	for nname, net := range nets {
		for _, policy := range []string{"lama", "by-slot"} {
			t.Run(nname+"/"+policy, func(t *testing.T) {
				c := testCluster(t, 8)
				pol, ok := place.Lookup(policy)
				if !ok {
					t.Fatalf("policy %q not registered", policy)
				}
				np := 64
				req := &place.Request{
					Cluster: c, NP: np, Layout: core.MustParseLayout("ncsbh"),
					Traffic: commpat.Ring(np, 4096),
				}
				sink := obs.NewMemorySink()
				req.Opts.Obs = &obs.Observer{Sink: sink, Clock: func() int64 { return 0 }}
				pl := &place.Pipeline{Policy: pol, Stages: []place.Stage{&Stage{Net: net}, &Refine{Net: net}}}
				m, err := pl.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if m.NumRanks() != np {
					t.Fatalf("rank count %d", m.NumRanks())
				}
				if err := m.Validate(c); err != nil {
					t.Fatal(err)
				}
				// The stages report only through their netsim events.
				var evs []obs.Event
				for _, e := range sink.Events() {
					if e.Source == obs.SrcNetSim {
						evs = append(evs, e)
					}
				}
				if len(evs) != 2 || evs[0].Name != obs.EvOrder || evs[1].Name != obs.EvRefine {
					t.Fatalf("netsim events %v, want one order then one refine", sink.Names(obs.SrcNetSim))
				}
				orderJ, refineJ := field(t, evs[0], "j_after").(float64), field(t, evs[1], "j_after").(float64)
				if refineJ > orderJ+1e-9 {
					t.Fatalf("refine regressed J: order %g, refine %g", orderJ, refineJ)
				}
				if got := evalJ(t, c, netsim.NewModel(net), req.Traffic, m); !closeRel(got, refineJ) {
					t.Fatalf("refine event reports J %g, oracle %g", refineJ, got)
				}
			})
		}
	}
}

// field returns the value of e's field key.
func field(t *testing.T, e obs.Event, key string) any {
	t.Helper()
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	t.Fatalf("%s/%s event has no %q field", e.Source, e.Name, key)
	return nil
}

func TestStageNeedsTraffic(t *testing.T) {
	c := testCluster(t, 2)
	req := &place.Request{Cluster: c, NP: 4, Layout: core.MustParseLayout("csbnh")}
	m := mapJob(t, c, 4)
	st := &Stage{Net: netsim.NewFlat()}
	if _, err := st.Apply(context.Background(), req, m); err == nil {
		t.Fatal("stage without traffic must error")
	}
	rf := &Refine{Net: netsim.NewFlat()}
	if _, err := rf.Apply(context.Background(), req, m); err == nil {
		t.Fatal("refine without traffic must error")
	}
	none := &Stage{}
	req.Traffic = commpat.Ring(4, 1)
	if _, err := none.Apply(context.Background(), req, m); err == nil {
		t.Fatal("stage without network must error")
	}
}
