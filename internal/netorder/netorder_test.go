package netorder

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
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

func TestRefineImprovesScatteredRing(t *testing.T) {
	c := testCluster(t, 8)
	np := 64
	m := scatterMap(t, c, np)
	mo := netsim.NewModel(netsim.NewFatTree(2))
	tm := commpat.Ring(np, 4096)

	out, res, err := RefineMap(c, mo, tm, m, 0)
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
	// Input map untouched.
	if evalJ(t, c, mo, tm, m) != res.JBefore {
		t.Fatal("input map mutated")
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
	out, res, err := RefineMap(c, mo, tm, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 && out != m {
		t.Fatal("no-swap refinement must return the input map")
	}
	if res.JAfter > res.JBefore {
		t.Fatalf("J regressed: %g -> %g", res.JBefore, res.JAfter)
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
		o2, r2, err := RefineMap(c, mo, tm, o1, 0)
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
				var or *Result
				var rr *RefineResult
				pl := &place.Pipeline{Policy: pol, Stages: []place.Stage{
					&Stage{Net: net, OnResult: func(r *Result) { or = r }},
					&Refine{Net: net, OnResult: func(r *RefineResult) { rr = r }},
				}}
				m, err := pl.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if or == nil || rr == nil {
					t.Fatal("stage results not reported")
				}
				if m.NumRanks() != np {
					t.Fatalf("rank count %d", m.NumRanks())
				}
				if rr.JAfter > or.JAfter+1e-9 {
					t.Fatalf("refine regressed J: order %g, refine %g", or.JAfter, rr.JAfter)
				}
			})
		}
	}
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
