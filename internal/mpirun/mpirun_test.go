package mpirun

import (
	"context"
	"errors"
	"testing"

	"lama/internal/bind"
	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	return cluster.Homogeneous(2, sp)
}

func TestLevel1Defaults(t *testing.T) {
	req, err := Parse([]string{"-np", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Level != 1 || req.NP != 4 {
		t.Fatalf("req = %+v", req)
	}
	if req.Layout.String() != "csbnh" {
		t.Fatalf("default layout = %q", req.Layout)
	}
	if req.BindPolicy != bind.None {
		t.Fatal("default binding should be none")
	}
}

func TestLevel2Shortcuts(t *testing.T) {
	cases := map[string]string{
		"--bynode": "ncsbh",
		"--byslot": "csbnh",
	}
	for flag, want := range cases {
		req, err := Parse([]string{"-np", "2", flag})
		if err != nil {
			t.Fatal(err)
		}
		if req.Level != 2 || req.Layout.String() != want {
			t.Fatalf("%s -> level %d layout %q", flag, req.Level, req.Layout)
		}
	}
	req, err := Parse([]string{"-np", "2", "--map-by", "socket", "--bind-to", "core"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Layout.String() != "scbnh" || req.BindPolicy != bind.Specific || req.BindLevel != hw.LevelCore {
		t.Fatalf("req = %+v", req)
	}
	for _, name := range ShortcutNames() {
		l, ok := ShortcutLayout(name)
		if !ok {
			t.Fatalf("shortcut %q missing", name)
		}
		if _, err := core.ParseLayout(l); err != nil {
			t.Fatalf("shortcut %q lowers to invalid layout %q: %v", name, l, err)
		}
	}
}

func TestLevel3RawLayout(t *testing.T) {
	req, err := Parse([]string{"-np", "24", "--lama-map", "scbnh", "--bind-to", "hwthread"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Level != 3 || req.Layout.String() != "scbnh" || req.BindLevel != hw.LevelPU {
		t.Fatalf("req = %+v", req)
	}
}

func TestLevel4Rankfile(t *testing.T) {
	rf := "rank 0=node0 slot=0\nrank 1=node1 slot=0"
	req, err := Parse([]string{"-np", "2", "--rankfile-text", rf})
	if err != nil {
		t.Fatal(err)
	}
	if req.Level != 4 || req.Rankfile == nil {
		t.Fatalf("req = %+v", req)
	}
	res, err := Execute(context.Background(), req, testCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Map.NumRanks() != 2 {
		t.Fatal("rankfile execute")
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // missing -np
		{"-np"},                                // missing value
		{"-np", "x"},                           // bad value
		{"-np", "0"},                           // non-positive
		{"-np", "2", "--map-by", "warp"},       // unknown pattern
		{"-np", "2", "--map-by"},               // missing value
		{"-np", "2", "--lama-map", "zz"},       // bad layout
		{"-np", "2", "--bind-to", "galaxy"},    // bad bind target
		{"-np", "2", "--pe", "0"},              // bad pe
		{"-np", "2", "--max-per", "socket"},    // missing =
		{"-np", "2", "--max-per", "warp=2"},    // bad level
		{"-np", "2", "--max-per", "node=x"},    // bad count
		{"-np", "2", "--wibble"},               // unknown option
		{"-np", "2", "--bynode", "--byslot"},   // conflicting maps
		{"-np", "2", "--rankfile-text", "bad"}, // bad rankfile
	}
	for _, args := range cases {
		if _, err := Parse(args); err == nil {
			t.Errorf("Parse(%v) should fail", args)
		}
	}
}

func TestParseOptionFlags(t *testing.T) {
	req, err := Parse([]string{"-np", "4", "--pe", "2", "--oversubscribe",
		"--max-per", "node=2", "--max-per", "socket=1", "--bind-limited"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Opts.PEsPerProc != 2 || !req.Opts.Oversubscribe {
		t.Fatalf("opts = %+v", req.Opts)
	}
	if req.Opts.MaxPerResource[hw.LevelMachine] != 2 || req.Opts.MaxPerResource[hw.LevelSocket] != 1 {
		t.Fatalf("caps = %v", req.Opts.MaxPerResource)
	}
	if req.BindPolicy != bind.Limited {
		t.Fatal("bind-limited ignored")
	}
}

// TestLevel2EquivalentToLevel3 is experiment E11: shortcuts produce
// exactly the plan of their Level 3 layout.
func TestLevel2EquivalentToLevel3(t *testing.T) {
	c := testCluster(t)
	for _, name := range ShortcutNames() {
		layout, _ := ShortcutLayout(name)
		r2, err := Parse([]string{"-np", "8", "--map-by", name})
		if err != nil {
			t.Fatal(err)
		}
		r3, err := Parse([]string{"-np", "8", "--lama-map", layout})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Execute(context.Background(), r2, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m3, err := Execute(context.Background(), r3, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m2.Map.Placements {
			a, b := m2.Map.Placements[i], m3.Map.Placements[i]
			if a.Node != b.Node || a.PU() != b.PU() {
				t.Fatalf("%s: rank %d differs (%d/%d vs %d/%d)",
					name, i, a.Node, a.PU(), b.Node, b.PU())
			}
		}
	}
}

func TestExecuteMappingAndBinding(t *testing.T) {
	c := testCluster(t)
	req, err := Parse([]string{"-np", "24", "--lama-map", "scbnh", "--bind-to", "core"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Map.NumRanks() != 24 || len(res.Plan.Bindings) != 24 {
		t.Fatal("wrong sizes")
	}
	if res.Plan.Bindings[0].Width != 2 {
		t.Fatalf("core binding width = %d", res.Plan.Bindings[0].Width)
	}
}

func TestExecuteErrors(t *testing.T) {
	c := testCluster(t)
	// Too many ranks without --oversubscribe.
	req, _ := Parse([]string{"-np", "25", "--lama-map", "scbnh"})
	if _, err := Execute(context.Background(), req, c); !errors.Is(err, core.ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
	// Rankfile rank count mismatch.
	req2, _ := Parse([]string{"-np", "3", "--rankfile-text", "rank 0=node0 slot=0\nrank 1=node1 slot=0"})
	if _, err := Execute(context.Background(), req2, c); err == nil {
		t.Fatal("np mismatch should fail")
	}
	// Oversubscribing rankfile without --oversubscribe.
	req3, _ := Parse([]string{"-np", "2", "--rankfile-text", "rank 0=node0 slot=0\nrank 1=node0 slot=0"})
	if _, err := Execute(context.Background(), req3, c); !errors.Is(err, core.ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
	// Same rankfile with --oversubscribe is accepted.
	req4, _ := Parse([]string{"-np", "2", "--oversubscribe", "--rankfile-text",
		"rank 0=node0 slot=0\nrank 1=node0 slot=0"})
	if _, err := Execute(context.Background(), req4, c); err != nil {
		t.Fatal(err)
	}
	// Unknown rankfile host.
	req5, _ := Parse([]string{"-np", "1", "--rankfile-text", "rank 0=ghost slot=0"})
	if _, err := Execute(context.Background(), req5, c); err == nil {
		t.Fatal("unknown host should fail")
	}
}

func TestRespectSlotsFlag(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	c.Nodes[0].Slots = 1
	c.Nodes[1].Slots = 1
	req, err := Parse([]string{"-np", "2", "--byslot", "--respect-slots"})
	if err != nil {
		t.Fatal(err)
	}
	if !req.Opts.RespectSlots {
		t.Fatal("flag lost")
	}
	res, err := Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	per := res.Map.RanksByNode()
	if len(per[0]) != 1 || len(per[1]) != 1 {
		t.Fatalf("slots ignored: %v", per)
	}
	req3, _ := Parse([]string{"-np", "3", "--byslot", "--respect-slots"})
	if _, err := Execute(context.Background(), req3, c); !errors.Is(err, core.ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
}

func TestBindLevelAllTargets(t *testing.T) {
	targets := map[string]hw.Level{
		"board": hw.LevelBoard, "socket": hw.LevelSocket, "numa": hw.LevelNUMA,
		"l1": hw.LevelL1, "l2": hw.LevelL2, "l3": hw.LevelL3,
		"core": hw.LevelCore, "hwthread": hw.LevelPU,
	}
	for name, want := range targets {
		req, err := Parse([]string{"-np", "2", "--bind-to", name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if req.BindLevel != want || req.BindPolicy != bind.Specific {
			t.Fatalf("%s -> %v/%v", name, req.BindPolicy, req.BindLevel)
		}
	}
	// bind-to none resets to Policy None.
	req, err := Parse([]string{"-np", "2", "--bind-to", "none"})
	if err != nil || req.BindPolicy != bind.None {
		t.Fatalf("none: %v %v", err, req.BindPolicy)
	}
	// max-per accepts every bindable level plus "node".
	for name := range targets {
		if _, err := Parse([]string{"-np", "2", "--max-per", name + "=2"}); err != nil {
			t.Fatalf("max-per %s: %v", name, err)
		}
	}
}

func TestParseMissingValues(t *testing.T) {
	for _, args := range [][]string{
		{"-np", "2", "--bind-to"},
		{"-np", "2", "--pe"},
		{"-np", "2", "--max-per"},
		{"-np", "2", "--lama-map"},
		{"-np", "2", "--rankfile-text"},
		{"-np", "2", "--pe", "x"},
	} {
		if _, err := Parse(args); err == nil {
			t.Errorf("Parse(%v) should fail", args)
		}
	}
}

func TestExecuteBindingFailure(t *testing.T) {
	// A rankfile placement with multiple non-contiguous PUs still binds
	// (claimed-PU binding); binding across restricted nodes fails in
	// plan.Check. Simulate by restricting after parse validation cannot
	// catch it: use a bind level above the leaf on an irregular map.
	c := testCluster(t)
	req, err := Parse([]string{"-np", "1", "--rankfile-text", "rank 0=node0 slot=0", "--bind-to", "hwthread"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), req, c); err != nil {
		t.Fatal(err)
	}
}

func TestLamaBindWidthSpec(t *testing.T) {
	c := testCluster(t) // fig2: 2 sockets x 3 cores x 2 threads
	req, err := Parse([]string{"-np", "4", "--map-by", "socket", "--lama-bind", "2c"})
	if err != nil {
		t.Fatal(err)
	}
	if req.BindPolicy != bind.Specific || req.BindLevel != hw.LevelCore || req.BindCount != 2 {
		t.Fatalf("req = %+v", req)
	}
	res, err := Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Bindings[0].Width != 4 { // two dual-thread cores
		t.Fatalf("width = %d, want 4", res.Plan.Bindings[0].Width)
	}
	// "1s" behaves like --bind-to socket.
	req2, _ := Parse([]string{"-np", "4", "--map-by", "socket", "--lama-bind", "1s"})
	res2, err := Execute(context.Background(), req2, c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Plan.Bindings[0].Width != 6 {
		t.Fatalf("socket width = %d", res2.Plan.Bindings[0].Width)
	}
	// Bad specs rejected at parse time.
	for _, bad := range [][]string{
		{"-np", "2", "--lama-bind", "0c"},
		{"-np", "2", "--lama-bind", "2x"},
		{"-np", "2", "--lama-bind"},
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%v) should fail", bad)
		}
	}
}

func TestParseEqualsFormForExistingFlags(t *testing.T) {
	req, err := Parse([]string{"-np", "6", "--map-by=socket", "--bind-to=core", "--max-per=node=4"})
	if err != nil {
		t.Fatal(err)
	}
	if req.Level != 2 || req.BindPolicy != bind.Specific || req.BindLevel != hw.LevelCore {
		t.Fatalf("req = %+v", req)
	}
	if req.Opts.MaxPerResource[hw.LevelMachine] != 4 {
		t.Fatalf("max-per = %+v", req.Opts.MaxPerResource)
	}
}
