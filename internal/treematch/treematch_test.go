package treematch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
)

func fig2Cluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	return cluster.Homogeneous(nodes, sp)
}

func TestMapIsValidPermutation(t *testing.T) {
	c := fig2Cluster(t, 2)
	tm := commpat.Ring(24, 1000)
	m, err := Map(c, tm, 24)
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
			t.Fatalf("PU reused: %v", k)
		}
		seen[k] = true
	}
	if m.Oversubscribed() {
		t.Fatal("must not oversubscribe")
	}
}

func TestRingStaysContiguous(t *testing.T) {
	// A ring's optimal partition keeps consecutive ranks together; the
	// greedy grouping must keep at least ring-neighbor majorities on-node.
	c := fig2Cluster(t, 2)
	tm := commpat.Ring(24, 1000)
	m, err := Map(c, tm, 24)
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for i := 0; i < 24; i++ {
		if m.Placements[i].Node != m.Placements[(i+1)%24].Node {
			cross++
		}
	}
	// A perfect split has 2 crossing edges; greedy may be slightly worse
	// but must beat round-robin's 24.
	if cross > 6 {
		t.Fatalf("ring crossings = %d, want <= 6", cross)
	}
}

func TestBeatsObliviousMappingOnClusteredTraffic(t *testing.T) {
	// Traffic with two heavy cliques that do NOT align with rank order:
	// even ranks talk to even ranks, odd to odd. A pack mapping splits
	// both cliques across nodes; treematch should reunite them.
	c := fig2Cluster(t, 2)
	np := 24
	b := commpat.NewBuilder(np)
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i != j && i%2 == j%2 {
				b.Add(i, j, 1000)
			}
		}
	}
	tm := b.Build()
	mo := netsim.NewModel(netsim.NewFlat())

	tmatch, err := Map(c, tm, np)
	if err != nil {
		t.Fatal(err)
	}
	repT, err := mo.Evaluate(c, tmatch, tm)
	if err != nil {
		t.Fatal(err)
	}

	mapper, _ := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	pack, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := mo.Evaluate(c, pack, tm)
	if err != nil {
		t.Fatal(err)
	}

	if repT.InterBytes != 0 {
		t.Fatalf("treematch should fully localize the cliques, inter=%v", repT.InterBytes)
	}
	if repP.InterBytes == 0 {
		t.Fatal("pack should split the cliques (test is vacuous otherwise)")
	}
	if repT.TotalTime >= repP.TotalTime {
		t.Fatalf("treematch %v should beat pack %v", repT.TotalTime, repP.TotalTime)
	}
}

func TestHonorsRestrictions(t *testing.T) {
	c := fig2Cluster(t, 2)
	c.Node(0).Topo.Restrict(hw.CPUSetRange(0, 5)) // half of node0
	tm := commpat.Ring(18, 100)
	m, err := Map(c, tm, 18)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}
	per := m.RanksByNode()
	if len(per[0]) != 6 || len(per[1]) != 12 {
		t.Fatalf("per node = %d/%d", len(per[0]), len(per[1]))
	}
}

func TestErrors(t *testing.T) {
	c := fig2Cluster(t, 1)
	if _, err := Map(c, commpat.Ring(4, 1), 0); err == nil {
		t.Fatal("np=0")
	}
	if _, err := Map(c, commpat.Ring(4, 1), 5); err == nil {
		t.Fatal("matrix size mismatch")
	}
	if _, err := Map(c, commpat.Ring(13, 1), 13); err == nil {
		t.Fatal("over capacity")
	}
}

func TestDeterministic(t *testing.T) {
	c := fig2Cluster(t, 2)
	tm := commpat.RandomPairs(24, 40, 100, 5)
	a, err := Map(c, tm, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(c, tm, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Placements {
		if a.Placements[i].Node != b.Placements[i].Node || a.Placements[i].PU() != b.Placements[i].PU() {
			t.Fatal("non-deterministic")
		}
	}
}

func TestQuickTreeMatchBijective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes := 1 + r.Intn(3)
		sp := hw.Spec{
			Boards: 1, Sockets: 1 + r.Intn(2), NUMAs: 1, L3s: 1,
			L2s: 1 + r.Intn(2), L1s: 1, Cores: 1 + r.Intn(3), PUs: 1 + r.Intn(2),
		}
		c := cluster.Homogeneous(nodes, sp)
		if r.Intn(2) == 0 {
			c.Node(0).Topo.Restrict(hw.CPUSetRange(0, c.Node(0).Topo.NumPUs()/2))
		}
		capacity := c.TotalUsablePUs()
		if capacity == 0 {
			return true
		}
		np := 1 + r.Intn(capacity)
		tm := commpat.RandomPairs(np, 1+r.Intn(3*np), 100, seed)
		m, err := Map(c, tm, np)
		if err != nil {
			return false
		}
		if m.Validate(c) != nil || m.NumRanks() != np || m.Oversubscribed() {
			return false
		}
		type key struct{ node, pu int }
		seen := map[key]bool{}
		for _, p := range m.Placements {
			k := key{p.Node, p.PU()}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
