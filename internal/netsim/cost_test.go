package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/torus"
)

// relClose compares with relative tolerance: a J carried through many
// applied deltas sums the same edges in a different order than a fresh
// evaluation, so the two differ by ulps.
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// testNetworks builds one of each network kind sized for n nodes.
func testNetworks(n int) map[string]Network {
	return map[string]Network{
		"flat":      NewFlat(),
		"fat-tree":  NewFatTree(2),
		"dragonfly": NewDragonfly(2),
		"torus":     NewTorus3D(torus.FitDims(n)),
	}
}

// TestDistancesMatchNetworks holds the compiled inter-node half of
// Pricing to its spec: every node pair's hops, and its Edge price, equal
// what the virtual Network methods give, bit for bit.
func TestDistancesMatchNetworks(t *testing.T) {
	const n = 8
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(n, sp)
	for name, net := range testNetworks(n) {
		pr, err := NewModel(net).Pricing(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := int(pr.Hops(a, b)), net.Hops(a, b); got != want {
					t.Fatalf("%s hops(%d,%d) = %d, want %d", name, a, b, got, want)
				}
				if a == b {
					continue // same-node pairs are priced intra-node
				}
				const bytes = 12345 // not a power of two: see testTraffic
				want := net.Latency(a, b) + bytes/net.Bandwidth(a, b)
				if got := pr.Edge(int32(a), 0, int32(b), 0, bytes); got != want {
					t.Fatalf("%s edge(%d,%d) = %g, want %g", name, a, b, got, want)
				}
			}
		}
	}
}

// fakeNet is a Network with no distance class model.
type fakeNet struct{}

func (fakeNet) Name() string               { return "fake-net" }
func (fakeNet) Latency(a, b int) float64   { return 1 }
func (fakeNet) Bandwidth(a, b int) float64 { return 1 }
func (fakeNet) Hops(a, b int) int          { return 1 }

// TestPricingRejectsUnknownNetwork: pricing supports exactly the four
// structured networks; any other Network is an error that names it, both
// when compiling a Pricing and through Model.Evaluate.
func TestPricingRejectsUnknownNetwork(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	mo := NewModel(fakeNet{})
	if _, err := mo.Pricing(c); err == nil || !strings.Contains(err.Error(), "fake-net") {
		t.Fatalf("Pricing: err = %v, want one naming fake-net", err)
	}
	mapper, err := core.NewMapper(c, core.MustParseLayout("ncsbh"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mo.Evaluate(c, m, commpat.Ring(4, 1000)); err == nil || !strings.Contains(err.Error(), "fake-net") {
		t.Fatalf("Evaluate: err = %v, want one naming fake-net", err)
	}
}

func mustPricing(t testing.TB, mo *Model, c *cluster.Cluster) *Pricing {
	t.Helper()
	pr, err := mo.Pricing(c)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// testClusters returns the placement substrates the differential tests
// run over: homogeneous, heterogeneous, and one with a failed node.
func testClusters(t *testing.T) map[string]*cluster.Cluster {
	t.Helper()
	fig2, _ := hw.Preset("fig2")
	neh, _ := hw.Preset("nehalem-ep")
	hetero := cluster.FromSpecs(fig2, neh, fig2, neh, fig2, neh)
	failed := cluster.Homogeneous(6, fig2)
	if !failed.Node(2).Topo.SetAvailable(hw.LevelMachine, 0, false) {
		t.Fatal("SetAvailable")
	}
	return map[string]*cluster.Cluster{
		"homog":  cluster.Homogeneous(6, fig2),
		"hetero": hetero,
		"failed": failed,
	}
}

// testTraffic's volumes are deliberately not powers of two: for x = 2^k,
// x*(1/bw) rounds to exactly x/bw, so such volumes cannot tell a pricing
// that multiplies by a stored inverse from the spec's division.
func testTraffic(np int) map[string]*commpat.Matrix {
	out := map[string]*commpat.Matrix{
		"random": commpat.RandomPairs(np, 3*np, 7777, 42),
	}
	for _, p := range commpat.Patterns() {
		out[p.Name] = p.Gen(np, 12345)
	}
	return out
}

// totalSlots sums the effective slots of c's nodes.
func totalSlots(c *cluster.Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		n += node.EffectiveSlots()
	}
	return n
}

// TestCostMatchesEvaluate pins the single pricing path: a fresh Cost and
// Model.Evaluate sum the same Pricing edges in the same Each order, so J
// and TotalTime are equal exactly, not just within a tolerance.
func TestCostMatchesEvaluate(t *testing.T) {
	for cname, c := range testClusters(t) {
		np := totalSlots(c)
		if np > 48 {
			np = 48
		}
		m := mapJob(t, c, "csbnh", np)
		for nname, net := range testNetworks(c.NumNodes()) {
			mo := NewModel(net)
			for pname, tm := range testTraffic(np) {
				rep, err := mo.Evaluate(c, m, tm)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", cname, nname, pname, err)
				}
				cost, err := NewCost(mustPricing(t, mo, c), tm, m)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", cname, nname, pname, err)
				}
				if cost.J() != rep.TotalTime {
					t.Fatalf("%s/%s/%s: J = %g, Evaluate = %g",
						cname, nname, pname, cost.J(), rep.TotalTime)
				}
				if cost.Recompute() != cost.J() {
					t.Fatalf("%s/%s/%s: Recompute drifted", cname, nname, pname)
				}
			}
		}
	}
}

// swapMapPlacements mirrors netorder's placement swap for the oracle map.
func swapMapPlacements(m *core.Map, a, b int) {
	pa, pb := &m.Placements[a], &m.Placements[b]
	*pa, *pb = *pb, *pa
	pa.Rank, pb.Rank = a, b
}

func cloneMap(m *core.Map) *core.Map {
	out := &core.Map{Layout: m.Layout, Sweeps: m.Sweeps,
		Placements: append([]core.Placement(nil), m.Placements...)}
	return out
}

func TestDeltaSwapDifferential(t *testing.T) {
	for cname, c := range testClusters(t) {
		np := totalSlots(c)
		if np > 36 {
			np = 36
		}
		m := mapJob(t, c, "csbnh", np)
		for nname, net := range testNetworks(c.NumNodes()) {
			mo := NewModel(net)
			for pname, tm := range testTraffic(np) {
				cost, err := NewCost(mustPricing(t, mo, c), tm, m)
				if err != nil {
					t.Fatal(err)
				}
				oracle := cloneMap(m)
				r := rand.New(rand.NewSource(99))
				for step := 0; step < 40; step++ {
					a, b := r.Intn(np), r.Intn(np)
					d := cost.DeltaSwap(a, b)
					if got := cost.ApplySwap(a, b); got != d {
						t.Fatalf("ApplySwap delta mismatch")
					}
					swapMapPlacements(oracle, a, b)
					rep, err := mo.Evaluate(c, oracle, tm)
					if err != nil {
						t.Fatal(err)
					}
					if !relClose(cost.J(), rep.TotalTime, 1e-9) {
						t.Fatalf("%s/%s/%s step %d swap(%d,%d): J = %g, oracle = %g",
							cname, nname, pname, step, a, b, cost.J(), rep.TotalTime)
					}
					if !relClose(cost.J(), cost.Recompute(), 1e-9) {
						t.Fatalf("%s/%s/%s step %d: J drifted from Recompute", cname, nname, pname, step)
					}
				}
			}
		}
	}
}

func TestDeltaSwapTrivial(t *testing.T) {
	c := testClusters(t)["homog"]
	m := mapJob(t, c, "csbnh", 12)
	tm := commpat.Ring(12, 100)
	cost, err := NewCost(mustPricing(t, NewModel(NewFlat()), c), tm, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := cost.DeltaSwap(3, 3); d != 0 {
		t.Fatalf("self swap delta %g", d)
	}
}

func TestCostErrors(t *testing.T) {
	c := testClusters(t)["homog"]
	m := mapJob(t, c, "csbnh", 12)
	mo := NewModel(NewFlat())
	if _, err := NewCost(mustPricing(t, mo, c), commpat.Ring(8, 1), m); err == nil ||
		!strings.Contains(err.Error(), "traffic has") {
		t.Fatalf("rank mismatch: %v", err)
	}
	if _, err := NewCost(nil, commpat.Ring(12, 1), m); err == nil {
		t.Fatal("nil pricing accepted")
	}
	if _, err := mo.Pricing(nil); err == nil {
		t.Fatal("nil cluster accepted")
	}
}

// TestDeltaAllocationFree pins the hot path: pricing and applying swaps
// allocates nothing in steady state.
func TestDeltaAllocationFree(t *testing.T) {
	c := testClusters(t)["homog"]
	np := 24
	m := mapJob(t, c, "csbnh", np)
	tm := commpat.RandomPairs(np, 3*np, 1024, 3)
	cost, err := NewCost(mustPricing(t, NewModel(NewFatTree(2)), c), tm, m)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		a, b := i%np, (i*7+3)%np
		cost.DeltaSwap(a, b)
		cost.ApplySwap(a, b)
		cost.ApplySwap(a, b) // undo, keeping state bounded
		i++
	})
	if allocs != 0 {
		t.Fatalf("delta path allocates %v per op, want 0", allocs)
	}
}

func benchSetup(b *testing.B, np int) (*cluster.Cluster, *Model, *commpat.Matrix, *core.Map) {
	b.Helper()
	sp, _ := hw.Preset("nehalem-ep")
	nodes := np / 16
	if nodes < 1 {
		nodes = 1
	}
	c := cluster.Homogeneous(nodes, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		b.Fatal(err)
	}
	return c, NewModel(NewDragonfly(8)), commpat.Ring(np, 4096), m
}

// BenchmarkDeltaSwap vs BenchmarkEvaluateFull is the tentpole's perf
// claim: pricing one candidate swap costs O(degree), independent of np,
// while a full evaluation is O(nnz).
func BenchmarkDeltaSwap(b *testing.B) {
	for _, np := range []int{1024, 8192, 65536} {
		b.Run(itoa(np), func(b *testing.B) {
			c, mo, tm, m := benchSetup(b, np)
			pr, err := mo.Pricing(c)
			if err != nil {
				b.Fatal(err)
			}
			cost, err := NewCost(pr, tm, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost.DeltaSwap(i%np, (i*31+7)%np)
			}
		})
	}
}

func BenchmarkEvaluateFull(b *testing.B) {
	for _, np := range []int{1024, 8192, 65536} {
		b.Run(itoa(np), func(b *testing.B) {
			c, mo, tm, m := benchSetup(b, np)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mo.Evaluate(c, m, tm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
