package baseline

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

func fig2Cluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, _ := hw.Preset("fig2") // 2 sockets x 3 cores x 2 PUs, sequential OS
	return cluster.Homogeneous(nodes, sp)
}

func lamaMap(t *testing.T, c *cluster.Cluster, layout string, np int) *core.Map {
	t.Helper()
	m, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func samePlacement(t *testing.T, name string, a, b *core.Map) {
	t.Helper()
	if a.NumRanks() != b.NumRanks() {
		t.Fatalf("%s: rank counts differ", name)
	}
	for i := range a.Placements {
		pa, pb := a.Placements[i], b.Placements[i]
		if pa.Node != pb.Node || pa.PU() != pb.PU() {
			t.Fatalf("%s: rank %d at node %d PU %d vs node %d PU %d",
				name, i, pa.Node, pa.PU(), pb.Node, pb.PU())
		}
	}
}

// TestBySlotMatchesLAMA cross-validates the independent by-slot loop nest
// against the LAMA layout it should equal ("csbnh").
func TestBySlotMatchesLAMA(t *testing.T) {
	c := fig2Cluster(t, 2)
	for _, np := range []int{1, 6, 12, 24} {
		got, err := BySlot(c, np)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(c); err != nil {
			t.Fatal(err)
		}
		samePlacement(t, "by-slot", got, lamaMap(t, c, "csbnh", np))
	}
}

// TestByNodeMatchesLAMA cross-validates by-node against LAMA "ncsbh".
func TestByNodeMatchesLAMA(t *testing.T) {
	c := fig2Cluster(t, 3)
	for _, np := range []int{1, 5, 18, 36} {
		got, err := ByNode(c, np)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(c); err != nil {
			t.Fatal(err)
		}
		samePlacement(t, "by-node", got, lamaMap(t, c, "ncsbh", np))
	}
}

func TestPackAndScatter(t *testing.T) {
	c := fig2Cluster(t, 2)
	// Pack at socket level: first 6 ranks all on node0 socket0.
	p, err := Pack(c, hw.LevelSocket, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range p.Placements {
		if pl.Node != 0 || pl.Leaf.Ancestor(hw.LevelSocket).Logical != 0 {
			t.Fatalf("pack rank %d escaped socket 0", pl.Rank)
		}
	}
	// Scatter at socket level: 4 ranks on 4 distinct sockets.
	s, err := Scatter(c, hw.LevelSocket, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*hw.Object]bool{}
	for _, pl := range s.Placements {
		sock := pl.Leaf.Ancestor(hw.LevelSocket)
		if seen[sock] {
			t.Fatalf("scatter reused socket %v", sock)
		}
		seen[sock] = true
	}
	// Cluster-wide socket round-robin equals LAMA "snch" (sockets vary
	// fastest, then nodes) for the first sockets-many ranks.
	samePlacement(t, "scatter-socket", s, lamaMap(t, c, "snch", 4))
	if _, err := Pack(c, hw.Level(99), 1); err == nil {
		t.Fatal("invalid level")
	}
	if _, err := Scatter(c, hw.Level(99), 1); err == nil {
		t.Fatal("invalid level")
	}
}

func TestScatterSkipsUnusableGroups(t *testing.T) {
	c := fig2Cluster(t, 1)
	c.Node(0).Topo.SetAvailable(hw.LevelSocket, 0, false)
	s, err := Scatter(c, hw.LevelSocket, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range s.Placements {
		if pl.Leaf.Ancestor(hw.LevelSocket).Logical != 1 {
			t.Fatal("rank on offline socket")
		}
	}
}

func TestRandomIsValidPermutation(t *testing.T) {
	c := fig2Cluster(t, 2)
	m, err := Random(c, 42, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}
	type key struct{ node, pu int }
	seen := map[key]bool{}
	for _, p := range m.Placements {
		k := key{p.Node, p.PU()}
		if seen[k] {
			t.Fatal("random mapper reused a PU")
		}
		seen[k] = true
	}
	// Determinism for a fixed seed.
	m2, _ := Random(c, 42, 24)
	samePlacement(t, "random-seed", m, m2)
	// Different seeds disagree (overwhelmingly likely).
	m3, _ := Random(c, 43, 24)
	diff := false
	for i := range m.Placements {
		if m.Placements[i].PU() != m3.Placements[i].PU() || m.Placements[i].Node != m3.Placements[i].Node {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical shuffles")
	}
}

func TestBaselineCapacityErrors(t *testing.T) {
	c := fig2Cluster(t, 1) // 12 PUs
	for name, f := range map[string]func() (*core.Map, error){
		"byslot":  func() (*core.Map, error) { return BySlot(c, 13) },
		"bynode":  func() (*core.Map, error) { return ByNode(c, 13) },
		"pack":    func() (*core.Map, error) { return Pack(c, hw.LevelCore, 13) },
		"scatter": func() (*core.Map, error) { return Scatter(c, hw.LevelCore, 13) },
		"random":  func() (*core.Map, error) { return Random(c, 1, 13) },
	} {
		if _, err := f(); err == nil {
			t.Errorf("%s: over-capacity should fail", name)
		}
	}
	if _, err := BySlot(c, 0); err == nil {
		t.Error("np=0 should fail")
	}
}

func TestBaselinesOnHeterogeneousCluster(t *testing.T) {
	big, _ := hw.Preset("nehalem-ep")
	small, _ := hw.Preset("bgp-node")
	c := cluster.FromSpecs(big, small) // 16 + 4 PUs
	m, err := ByNode(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}
	per := m.RanksByNode()
	if len(per[0]) != 16 || len(per[1]) != 4 {
		t.Fatalf("per-node = %d/%d", len(per[0]), len(per[1]))
	}
	m2, err := BySlot(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneDistribution(t *testing.T) {
	c := fig2Cluster(t, 3) // 12 PUs each
	m, err := Plane(c, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Blocks of 4 alternate nodes: ranks 0-3 node0, 4-7 node1, 8-11 node2.
	for i, p := range m.Placements {
		if p.Node != i/4 {
			t.Fatalf("rank %d on node %d, want %d", i, p.Node, i/4)
		}
	}
	// Wrap-around: the 13th-16th ranks return to node0's next slots.
	m2, err := Plane(c, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 16; i++ {
		if m2.Placements[i].Node != 0 {
			t.Fatalf("rank %d on node %d, want 0", i, m2.Placements[i].Node)
		}
	}
	// Block size 1 equals by-node on homogeneous machines.
	p1, err := Plane(c, 1, 18)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := ByNode(c, 18)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, "plane-1-vs-bynode", p1, bn)
}

func TestPlaneErrors(t *testing.T) {
	c := fig2Cluster(t, 1)
	if _, err := Plane(c, 0, 4); err == nil {
		t.Fatal("block size 0")
	}
	if _, err := Plane(c, 4, 13); err == nil {
		t.Fatal("over capacity")
	}
}

func TestPlaneSkipsFullNodes(t *testing.T) {
	big, _ := hw.Preset("nehalem-ep") // 16 PUs
	small, _ := hw.Preset("bgp-node") // 4 PUs
	c := cluster.FromSpecs(small, big)
	m, err := Plane(c, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}
	per := m.RanksByNode()
	if len(per[0]) != 4 || len(per[1]) != 16 {
		t.Fatalf("per node = %d/%d", len(per[0]), len(per[1]))
	}
}

// The ref* mappers below are the baselines as they were before they read
// the topology's usable-PU list and stopped at np: each enumerates all of
// the cluster's slots through (*hw.Object).UsablePUs, the tree walk, and
// then keeps np of them. TestBaselinesMatchReference holds the production
// mappers to them.

type refSlot struct {
	node int
	pu   *hw.Object
}

func refSlotsToMap(c *cluster.Cluster, slots []refSlot, np int, name string) (*core.Map, error) {
	if np <= 0 {
		return nil, fmt.Errorf("baseline: non-positive process count %d", np)
	}
	if np > len(slots) {
		return nil, fmt.Errorf("baseline: %s: %d ranks exceed %d processing units",
			name, np, len(slots))
	}
	m := &core.Map{Sweeps: 1}
	for rank := 0; rank < np; rank++ {
		s := slots[rank]
		m.Placements = append(m.Placements, core.Placement{
			Rank:     rank,
			Node:     s.node,
			NodeName: c.Node(s.node).Name,
			Leaf:     s.pu,
			PUs:      []int{s.pu.OS},
		})
	}
	return m, nil
}

func refNodePUs(c *cluster.Cluster, i int) [][]*hw.Object {
	node := c.Node(i)
	var byThread [][]*hw.Object
	for _, coreObj := range node.Topo.Objects(hw.LevelCore) {
		ups := coreObj.UsablePUs()
		for t, pu := range ups {
			for len(byThread) <= t {
				byThread = append(byThread, nil)
			}
			byThread[t] = append(byThread[t], pu)
		}
	}
	return byThread
}

func refFlat(c *cluster.Cluster) [][]*hw.Object {
	flat := make([][]*hw.Object, c.NumNodes())
	for i := range c.Nodes {
		for _, group := range refNodePUs(c, i) {
			flat[i] = append(flat[i], group...)
		}
	}
	return flat
}

func refBySlot(c *cluster.Cluster, np int) (*core.Map, error) {
	var slots []refSlot
	maxThreads := 0
	perNode := make([][][]*hw.Object, c.NumNodes())
	for i := range c.Nodes {
		perNode[i] = refNodePUs(c, i)
		if len(perNode[i]) > maxThreads {
			maxThreads = len(perNode[i])
		}
	}
	for t := 0; t < maxThreads; t++ {
		for i := range c.Nodes {
			if t < len(perNode[i]) {
				for _, pu := range perNode[i][t] {
					slots = append(slots, refSlot{node: i, pu: pu})
				}
			}
		}
	}
	return refSlotsToMap(c, slots, np, "by-slot")
}

func refByNode(c *cluster.Cluster, np int) (*core.Map, error) {
	flat := refFlat(c)
	cursor := make([]int, c.NumNodes())
	var slots []refSlot
	remaining := 0
	for i := range flat {
		remaining += len(flat[i])
	}
	for remaining > 0 {
		progressed := false
		for i := range flat {
			if cursor[i] < len(flat[i]) {
				slots = append(slots, refSlot{node: i, pu: flat[i][cursor[i]]})
				cursor[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return refSlotsToMap(c, slots, np, "by-node")
}

func refPack(c *cluster.Cluster, level hw.Level, np int) (*core.Map, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("baseline: invalid level")
	}
	var slots []refSlot
	for i, node := range c.Nodes {
		for _, obj := range node.Topo.Objects(level) {
			for _, pu := range obj.UsablePUs() {
				slots = append(slots, refSlot{node: i, pu: pu})
			}
		}
	}
	return refSlotsToMap(c, slots, np, "pack")
}

func refScatter(c *cluster.Cluster, level hw.Level, np int) (*core.Map, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("baseline: invalid level")
	}
	type group struct {
		node int
		pus  []*hw.Object
	}
	var groups []group
	for i, node := range c.Nodes {
		for _, obj := range node.Topo.Objects(level) {
			if ups := obj.UsablePUs(); len(ups) > 0 {
				groups = append(groups, group{node: i, pus: ups})
			}
		}
	}
	cursor := make([]int, len(groups))
	var slots []refSlot
	for {
		progressed := false
		for gi := range groups {
			if cursor[gi] < len(groups[gi].pus) {
				slots = append(slots, refSlot{node: groups[gi].node, pu: groups[gi].pus[cursor[gi]]})
				cursor[gi]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return refSlotsToMap(c, slots, np, "scatter")
}

func refRandom(c *cluster.Cluster, seed int64, np int) (*core.Map, error) {
	var slots []refSlot
	for i, node := range c.Nodes {
		for _, pu := range node.Topo.Root.UsablePUs() {
			slots = append(slots, refSlot{node: i, pu: pu})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	return refSlotsToMap(c, slots, np, "random")
}

func refPlane(c *cluster.Cluster, blockSize, np int) (*core.Map, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("baseline: plane block size %d", blockSize)
	}
	flat := refFlat(c)
	cursor := make([]int, c.NumNodes())
	var slots []refSlot
	node := 0
	remaining := 0
	for i := range flat {
		remaining += len(flat[i])
	}
	for remaining > 0 {
		tried := 0
		for tried < c.NumNodes() && cursor[node] >= len(flat[node]) {
			node = (node + 1) % c.NumNodes()
			tried++
		}
		if tried == c.NumNodes() {
			break
		}
		for k := 0; k < blockSize && cursor[node] < len(flat[node]); k++ {
			slots = append(slots, refSlot{node: node, pu: flat[node][cursor[node]]})
			cursor[node]++
			remaining--
		}
		node = (node + 1) % c.NumNodes()
	}
	return refSlotsToMap(c, slots, np, "plane")
}

// sameResult describes how two mapper results differ, or returns "".
// Placements must agree field for field, the leaf by identity.
func sameResult(got *core.Map, gotErr error, want *core.Map, wantErr error) string {
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, want %q", gotErr, wantErr)
		}
		return ""
	}
	if got.Sweeps != want.Sweeps || got.Layout.String() != want.Layout.String() || len(got.Placements) != len(want.Placements) {
		return fmt.Sprintf("map header or rank count differs: %d ranks, want %d", len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		g, w := &got.Placements[i], &want.Placements[i]
		if g.Rank != w.Rank || g.Node != w.Node || g.NodeName != w.NodeName ||
			g.Leaf != w.Leaf || !slices.Equal(g.PUs, w.PUs) || g.Oversubscribed != w.Oversubscribed {
			return fmt.Sprintf("rank %d: got %+v, want %+v", i, *g, *w)
		}
	}
	return ""
}

// randomTopology returns one node's topology: spec-built (possibly then
// restricted, off-lined, marked unavailable on interior objects, or
// decoded again with an object cut out), or decoded from JSON with levels
// skipped at random, the core level included.
func randomTopology(r *rand.Rand) *hw.Topology {
	if r.Intn(4) == 0 {
		return randomDecoded(r)
	}
	w := func(max int) int { return 1 + r.Intn(max) }
	topo := hw.New(hw.Spec{
		Boards: w(2), Sockets: w(2), NUMAs: w(2), L3s: 1,
		L2s: w(2), L1s: 1, Cores: w(3), PUs: w(3),
		ThreadMajorOS: r.Intn(2) == 0,
	})
	for k := r.Intn(4); k > 0; k-- {
		switch r.Intn(4) {
		case 0:
			l := hw.Level(r.Intn(hw.NumLevels))
			topo.SetAvailable(l, r.Intn(topo.NumObjects(l)+1), false)
		case 1:
			allowed := hw.NewCPUSet()
			for os := 0; os < topo.NumPUs(); os++ {
				if r.Intn(5) != 0 {
					allowed.Set(os)
				}
			}
			topo.Restrict(allowed)
		case 2:
			topo.Offline(hw.NewCPUSet(r.Intn(topo.NumPUs() + 1)))
		case 3:
			topo = cutObject(r, topo)
		}
	}
	return topo
}

// cutObject decodes topo's wire form with one random non-root object and
// its subtree left out: a ragged tree whose PUs keep every level above
// them.
func cutObject(r *rand.Rand, topo *hw.Topology) *hw.Topology {
	data, err := json.Marshal(topo)
	if err != nil {
		panic(err)
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		panic(err)
	}
	for obj := root; ; {
		kids, _ := obj["children"].([]any)
		if len(kids) == 0 {
			break
		}
		i := r.Intn(len(kids))
		if r.Intn(4) == 0 {
			obj["children"] = slices.Delete(kids, i, i+1)
			break
		}
		obj = kids[i].(map[string]any)
	}
	if data, err = json.Marshal(root); err != nil {
		panic(err)
	}
	cut := &hw.Topology{}
	if err := cut.UnmarshalJSON(data); err != nil {
		panic(err)
	}
	return cut
}

// randomDecoded builds a random irregular tree as JSON and decodes it:
// every child sits at a random level below its parent, so some PUs have
// no core above them and some objects have no PUs at all.
func randomDecoded(r *rand.Rand) *hw.Topology {
	os := 0
	var obj func(l hw.Level, depth int) string
	obj = func(l hw.Level, depth int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"level":%q`, l.String())
		if l == hw.LevelPU {
			fmt.Fprintf(&sb, `,"os":%d`, os)
			os++
		}
		if depth > 0 && r.Intn(8) == 0 {
			sb.WriteString(`,"available":false`)
		}
		if l < hw.LevelPU {
			var kids []string
			for k := r.Intn(4); k >= 0; k-- {
				next := hw.LevelPU
				if depth < 4 && r.Intn(3) != 0 {
					next = l + 1 + hw.Level(r.Intn(int(hw.LevelPU-l)))
				}
				kids = append(kids, obj(next, depth+1))
			}
			fmt.Fprintf(&sb, `,"children":[%s]`, strings.Join(kids, ","))
		}
		sb.WriteString("}")
		return sb.String()
	}
	var topo hw.Topology
	if err := json.Unmarshal([]byte(obj(hw.LevelMachine, 0)), &topo); err != nil {
		panic(err)
	}
	return &topo
}

// TestBaselinesMatchReference is the differential oracle for the
// baselines: on random heterogeneous, restricted, pruned and decoded
// clusters, every mapper equals its full-enumeration reference at every
// np from -1 to one past capacity, error strings included.
func TestBaselinesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		c := &cluster.Cluster{}
		for i := 0; i <= r.Intn(4); i++ {
			c.Nodes = append(c.Nodes, &cluster.Node{Name: fmt.Sprintf("node%d", i), Topo: randomTopology(r)})
		}
		if r.Intn(10) == 0 {
			c.Nodes = nil
		}
		type mapper func(np int) (*core.Map, error)
		cases := map[string][2]mapper{
			"by-slot": {func(np int) (*core.Map, error) { return BySlot(c, np) }, func(np int) (*core.Map, error) { return refBySlot(c, np) }},
			"by-node": {func(np int) (*core.Map, error) { return ByNode(c, np) }, func(np int) (*core.Map, error) { return refByNode(c, np) }},
		}
		for _, l := range append(hw.Levels[:], hw.Level(-1), hw.Level(hw.NumLevels)) {
			cases["pack/"+l.String()] = [2]mapper{
				func(np int) (*core.Map, error) { return Pack(c, l, np) },
				func(np int) (*core.Map, error) { return refPack(c, l, np) },
			}
			cases["scatter/"+l.String()] = [2]mapper{
				func(np int) (*core.Map, error) { return Scatter(c, l, np) },
				func(np int) (*core.Map, error) { return refScatter(c, l, np) },
			}
		}
		for _, seed := range []int64{1, 42} {
			cases[fmt.Sprintf("random/%d", seed)] = [2]mapper{
				func(np int) (*core.Map, error) { return Random(c, seed, np) },
				func(np int) (*core.Map, error) { return refRandom(c, seed, np) },
			}
		}
		for _, block := range []int{0, 1, 2, 3} {
			cases[fmt.Sprintf("plane/%d", block)] = [2]mapper{
				func(np int) (*core.Map, error) { return Plane(c, block, np) },
				func(np int) (*core.Map, error) { return refPlane(c, block, np) },
			}
		}
		for name, m := range cases {
			for np := -1; np <= c.TotalUsablePUs()+1; np++ {
				got, gotErr := m[0](np)
				want, wantErr := m[1](np)
				if d := sameResult(got, gotErr, want, wantErr); d != "" {
					t.Fatalf("trial %d %s np=%d: %s\ncluster:\n%s", trial, name, np, d, c.Summary())
				}
			}
		}
	}
}
