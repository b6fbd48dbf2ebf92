package msgsim

import (
	"math"
	"testing"
	"time"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
	"lama/internal/torus"
)

func setup(t *testing.T, layout string, nodes, np int) (*cluster.Cluster, *core.Map, *netsim.Model) {
	t.Helper()
	sp, _ := hw.Preset("nehalem-ep")
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

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// analytic prices one message with Model.Evaluate: the TotalTime of a
// one-entry traffic matrix is that pair's latency + bytes/bandwidth.
func analytic(t *testing.T, c *cluster.Cluster, m *core.Map, mo *netsim.Model, src, dst int, bytes float64) float64 {
	t.Helper()
	b := commpat.NewBuilder(m.NumRanks())
	b.Add(src, dst, bytes)
	rep, err := mo.Evaluate(c, m, b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return rep.TotalTime
}

func TestSingleMessageMatchesAnalytic(t *testing.T) {
	c, m, mo := setup(t, "ncsbh", 2, 4)
	// Rank 0 on node0, rank 1 on node1: one uncontended inter-node flow.
	msgs := []Message{{Src: 0, Dst: 1, Bytes: 1 << 20}}
	res, err := Run(c, m, mo, msgs)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic(t, c, m, mo, 0, 1, 1<<20)
	if !approx(res.Makespan, want, 0.01) {
		t.Fatalf("makespan = %v, analytic = %v", res.Makespan, want)
	}
	if res.Events == 0 || len(res.Outcomes) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestContentionHalvesRates(t *testing.T) {
	c, m, mo := setup(t, "ncsbh", 2, 4)
	// Two flows out of node0's uplink: each should get half the bandwidth,
	// so both finish at roughly latency + 2 x bytes/bw.
	msgs := []Message{
		{Src: 0, Dst: 1, Bytes: 1 << 20}, // node0 -> node1
		{Src: 2, Dst: 3, Bytes: 1 << 20}, // node0 -> node1 (ranks 2,3 alternate too)
	}
	res, err := Run(c, m, mo, msgs)
	if err != nil {
		t.Fatal(err)
	}
	single := analytic(t, c, m, mo, 0, 1, 1<<20)
	lat := mo.Net.Latency(0, 1)
	wantShared := lat + 2*(single-lat)
	if !approx(res.Makespan, wantShared, 1.0) {
		t.Fatalf("shared makespan = %v, want ~%v", res.Makespan, wantShared)
	}
}

func TestIndependentFlowsDoNotInterfere(t *testing.T) {
	c, m, mo := setup(t, "ncsbh", 4, 8)
	// node0->node1 and node2->node3: disjoint resources, both at full rate.
	msgs := []Message{
		{Src: 0, Dst: 1, Bytes: 1 << 20},
		{Src: 2, Dst: 3, Bytes: 1 << 20},
	}
	res, err := Run(c, m, mo, msgs)
	if err != nil {
		t.Fatal(err)
	}
	single := analytic(t, c, m, mo, 0, 1, 1<<20)
	if !approx(res.Makespan, single, 0.01) {
		t.Fatalf("independent flows slowed down: %v vs %v", res.Makespan, single)
	}
}

func TestIntraNodeUsesFabric(t *testing.T) {
	c, m, mo := setup(t, "csbnh", 1, 4)
	msgs := []Message{{Src: 0, Dst: 1, Bytes: 1 << 20}}
	res, err := Run(c, m, mo, msgs)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic(t, c, m, mo, 0, 1, 1<<20)
	if !approx(res.Makespan, want, 0.01) {
		t.Fatalf("intra = %v, want %v", res.Makespan, want)
	}
}

func TestTorusLinkContention(t *testing.T) {
	sp, _ := hw.Preset("bgp-node")
	d := torus.Dims{X: 4, Y: 1, Z: 1}
	c := cluster.Homogeneous(4, sp)
	mapper, _ := core.NewMapper(c, core.MustParseLayout("ncsbh"), core.Options{})
	m, err := mapper.Map(8)
	if err != nil {
		t.Fatal(err)
	}
	mo := netsim.NewModel(netsim.NewTorus3D(d))
	// Rank 0 (node0) -> rank 2 (node2) routes through node1; rank 1
	// (node1) -> rank 2 (node2) uses the same 1->2 link: contention.
	shared, err := Run(c, m, mo, []Message{
		{Src: 0, Dst: 2, Bytes: 1 << 18},
		{Src: 1, Dst: 2, Bytes: 1 << 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Run(c, m, mo, []Message{{Src: 0, Dst: 2, Bytes: 1 << 18}})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Makespan <= alone.Makespan {
		t.Fatalf("link contention not modeled: shared %v vs alone %v",
			shared.Makespan, alone.Makespan)
	}
}

// TestAnalyticUnderestimatesContention is the reason this package exists:
// with many flows through one uplink, the per-pair analytic cost is far
// below the fluid-fair completion time.
func TestAnalyticUnderestimatesContention(t *testing.T) {
	c, m, mo := setup(t, "csbnh", 2, 32)
	// csbnh places ranks 0-7 and 16-23 on node0, 8-15 and 24-31 on node1.
	// All 16 node0 ranks send to node1 partners simultaneously.
	var msgs []Message
	for r := 0; r < 8; r++ {
		msgs = append(msgs,
			Message{Src: r, Dst: 8 + r, Bytes: 1 << 20},
			Message{Src: 16 + r, Dst: 24 + r, Bytes: 1 << 20})
	}
	res, err := Run(c, m, mo, msgs)
	if err != nil {
		t.Fatal(err)
	}
	single := analytic(t, c, m, mo, 0, 8, 1<<20)
	if res.Makespan < 10*single {
		t.Fatalf("16-way contention should be ~16x single flow: %v vs %v",
			res.Makespan, single)
	}
}

func TestFromMatrix(t *testing.T) {
	tm := commpat.Ring(4, 100)
	msgs := FromMatrix(tm)
	if len(msgs) != 8 {
		t.Fatalf("messages = %d", len(msgs))
	}
	// Deterministic ordering.
	for i := 1; i < len(msgs); i++ {
		if msgs[i-1].Src > msgs[i].Src {
			t.Fatal("not sorted")
		}
	}
}

func TestRunErrors(t *testing.T) {
	c, m, mo := setup(t, "csbnh", 1, 4)
	cases := [][]Message{
		{{Src: 0, Dst: 9, Bytes: 1}},
		{{Src: -1, Dst: 1, Bytes: 1}},
		{{Src: 0, Dst: 1, Bytes: 0}},
		{{Src: 1, Dst: 1, Bytes: 5}},
	}
	for i, msgs := range cases {
		if _, err := Run(c, m, mo, msgs); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	empty, err := Run(c, m, mo, nil)
	if err != nil || empty.Makespan != 0 {
		t.Fatal("empty message set")
	}
}

// TestResidueBelowClockResolutionFinishes pins a livelock: after an event
// at t ≈ 4712 µs one flow kept 1.1e-9 bytes, above the completion
// threshold but too little for now + remaining/rate to differ from now, so
// every later event had dt = 0 and Run never returned. The 12 messages
// are a reduction of a 64-rank traffic file that hung lamasim -mode fluid.
func TestResidueBelowClockResolutionFinishes(t *testing.T) {
	c, m, mo := setup(t, "hcsbn", 8, 64)
	msgs := []Message{
		{11, 59, 1000}, {14, 16, 250000}, {20, 53, 250000}, {30, 41, 3e6},
		{30, 51, 1000}, {31, 63, 254096}, {33, 23, 3e6}, {36, 15, 3e6},
		{36, 56, 3.004096e6}, {37, 53, 3e6}, {38, 26, 1.048576e6}, {46, 55, 250000},
	}
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = Run(c, m, mo, msgs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: stalled at dt = 0")
	}
	for _, o := range res.Outcomes {
		if o.Finish <= 0 || o.Finish > res.Makespan {
			t.Fatalf("outcome %+v outside (0, makespan %v]", o, res.Makespan)
		}
	}
}
