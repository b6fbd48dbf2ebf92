package lama_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lama"
)

// TestEndToEndPipeline drives the whole public API the way the README
// quickstart does: cluster -> map -> bind -> launch -> evaluate.
func TestEndToEndPipeline(t *testing.T) {
	spec, ok := lama.Preset("nehalem-ep")
	if !ok {
		t.Fatal("preset missing")
	}
	c := lama.Homogeneous(4, spec)

	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(c); err != nil {
		t.Fatal(err)
	}

	plan, err := lama.Bind(c, m, lama.BindSpecific, lama.LevelCore)
	if err != nil {
		t.Fatal(err)
	}
	job, err := lama.NewRuntime(c).Launch(m, plan, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}

	model := lama.NewModel(lama.NewFlatNetwork())
	rep, err := model.Evaluate(c, m, lama.GTC(64, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTime <= 0 {
		t.Fatal("no cost computed")
	}

	s := lama.Summarize(c, m)
	if s.Ranks != 64 || s.NodesUsed != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestResourceManagerFlow allocates from a pool and maps into the
// restricted grant.
func TestResourceManagerFlow(t *testing.T) {
	spec, _ := lama.Preset("nehalem-ep")
	rm := lama.NewResourceManager(lama.Homogeneous(2, spec))
	alloc, err := rm.Alloc(lama.AllocCoreGranular, 10)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := lama.NewMapper(alloc.Granted, lama.MustParseLayout("csbnh"), lama.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Oversubscribed() {
		t.Fatal("10 ranks on 10 granted dual-thread cores")
	}
	if err := rm.Release(alloc); err != nil {
		t.Fatal(err)
	}
}

// TestMpirunFacade exercises ParseArgs/Execute and the error surface.
func TestMpirunFacade(t *testing.T) {
	spec, _ := lama.Preset("fig2")
	c := lama.Homogeneous(2, spec)
	req, err := lama.ParseArgs([]string{"-np", "24", "--map-by", "socket", "--bind-to", "core"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lama.Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Map.NumRanks() != 24 {
		t.Fatal("wrong rank count")
	}
	if layout, ok := lama.ShortcutLayout("socket"); !ok || layout != "scbnh" {
		t.Fatalf("shortcut = %q", layout)
	}
	req2, _ := lama.ParseArgs([]string{"-np", "25", "--map-by", "socket"})
	if _, err := lama.Execute(context.Background(), req2, c); !errors.Is(err, lama.ErrOversubscribe) {
		t.Fatalf("want ErrOversubscribe, got %v", err)
	}
}

// TestBaselineFacade runs the baseline and torus policies through Place.
func TestBaselineFacade(t *testing.T) {
	spec, _ := lama.Preset("bgp-node")
	d := lama.TorusDims{X: 2, Y: 2, Z: 2}
	c := lama.Homogeneous(d.Size(), spec)
	for name, req := range map[string]lama.PlaceRequest{
		"by-slot": {},
		"by-node": {},
		"pack":    {PackLevel: lama.LevelSocket},
		"scatter": {PackLevel: lama.LevelSocket},
		"random":  {Seed: 3},
		"torus":   {TorusDims: [3]int{d.X, d.Y, d.Z}, TorusOrder: "xyzt"},
	} {
		req.Cluster, req.NP = c, 16
		m, err := lama.Place(context.Background(), name, &req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(lama.TorusOrders()) != 24 {
		t.Fatal("torus orders")
	}
}

// TestHostfileAndRankfileFacade round-trips the text formats.
func TestHostfileAndRankfileFacade(t *testing.T) {
	def, _ := lama.Preset("bgp-node")
	c, err := lama.ParseHostfile("a slots=4 spec=fig2\nb slots=4 spec=fig2", def)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := lama.ParseRankfile("rank 0=a slot=0\nrank 1=b slot=0:1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := lama.ApplyRankfile(rf, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks() != 2 || m.Placements[1].NodeName != "b" {
		t.Fatal("rankfile apply")
	}
	set, err := lama.ParseCPUSet("0-2,5")
	if err != nil || set.Count() != 4 {
		t.Fatal("cpuset facade")
	}
	sp, err := lama.ParseSpec("2:4:2")
	if err != nil || lama.NewTopology(sp).NumPUs() != 16 {
		t.Fatal("spec facade")
	}
	if len(lama.PresetNames()) < 5 {
		t.Fatal("presets facade")
	}
	if !strings.Contains(c.Summary(), "2 nodes") {
		t.Fatal("summary facade")
	}
}

// TestIterOrderFacade checks the exported iteration orders.
func TestIterOrderFacade(t *testing.T) {
	if got := lama.SequentialOrder(3); got[0] != 0 || got[2] != 2 {
		t.Fatal("sequential")
	}
	if got := lama.ReverseOrder(3); got[0] != 2 || got[2] != 0 {
		t.Fatal("reverse")
	}
	spec, _ := lama.Preset("fig2")
	c := lama.Homogeneous(1, spec)
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{
		IterOrder: map[lama.Level]lama.IterOrder{lama.LevelSocket: lama.ReverseOrder},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Placements[0].PU() != 6 {
		t.Fatalf("reverse socket order: PU = %d, want 6 (socket 1)", m.Placements[0].PU())
	}
}

// TestExtensionFacade exercises the plane, treematch, and appsim exports.
func TestExtensionFacade(t *testing.T) {
	spec, _ := lama.Preset("fig2")
	c := lama.Homogeneous(2, spec)
	np := 24
	tm := lama.Ring(np, 1<<20)

	plane, err := lama.Place(context.Background(), "plane", &lama.PlaceRequest{Cluster: c, NP: np, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := plane.Validate(c); err != nil {
		t.Fatal(err)
	}

	tmatch, err := lama.Place(context.Background(), "treematch", &lama.PlaceRequest{Cluster: c, NP: np, Traffic: tm})
	if err != nil {
		t.Fatal(err)
	}
	if err := tmatch.Validate(c); err != nil {
		t.Fatal(err)
	}

	model := lama.NewModel(lama.NewFlatNetwork())
	cfg := lama.AppConfig{ComputeUs: 100, Iterations: 50}
	resA, err := lama.SimulateApp(c, tmatch, model, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := lama.Place(context.Background(), "random", &lama.PlaceRequest{Cluster: c, NP: np, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := lama.SimulateApp(c, rnd, model, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := lama.Speedup(resB, resA); s < 1 {
		t.Fatalf("traffic-aware mapping should not lose to random on a ring: %v", s)
	}
}

// TestBindingReportFacade checks the Open MPI-style report renders through
// the public API.
func TestBindingReportFacade(t *testing.T) {
	spec, _ := lama.Preset("fig2")
	c := lama.Homogeneous(1, spec)
	req, err := lama.ParseArgs([]string{"-np", "2", "--map-by", "socket",
		"--bind-to", "core", "--report-bindings"})
	if err != nil {
		t.Fatal(err)
	}
	if !req.ReportBindings {
		t.Fatal("flag lost")
	}
	res, err := lama.Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Plan.Render(c)
	if !strings.Contains(out, "[BB/../..]") {
		t.Fatalf("report:\n%s", out)
	}
}

// TestFacadeCoverage sweeps the remaining thin wrappers so regressions in
// re-export plumbing are caught.
func TestFacadeCoverage(t *testing.T) {
	// Synthetic specs.
	sp, err := lama.ParseSynthetic("socket:2 core:3 pu:2")
	if err != nil || sp.TotalPUs() != 12 {
		t.Fatalf("synthetic: %v %+v", err, sp)
	}
	if lama.FormatSynthetic(sp) == "" {
		t.Fatal("format synthetic")
	}

	c := lama.Homogeneous(2, sp)

	// Traffic matrix I/O.
	tm := lama.Stencil3D(2, 3, 2, 1000, true)
	back, err := lama.ParseTrafficMatrix(lama.FormatTrafficMatrix(tm))
	if err != nil || back.Ranks() != tm.Ranks() {
		t.Fatalf("traffic io: %v", err)
	}

	// NAS proxies and helpers.
	for _, gen := range []func(int, float64) *lama.TrafficMatrix{
		lama.NASCG, lama.NASMG, lama.NASFT, lama.NASLU, lama.AllToAll, lama.Ring,
	} {
		if m := gen(12, 10); m.Total() <= 0 {
			t.Fatal("empty pattern")
		}
	}
	if px, py := lama.Grid2D(12); px*py != 12 {
		t.Fatal("grid2d")
	}

	// Mapping + everything downstream.
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("csbnh"), lama.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(24)
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := mapper.MapTraced(24, 3)
	if err != nil || len(events) != 3 || events[0].Action != lama.TraceMapped {
		t.Fatalf("traced: %v %v", err, events)
	}

	// Map JSON + rankfile export.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lama.DecodeMap(data, c); err != nil {
		t.Fatal(err)
	}
	rf, err := lama.RankfileFromMap(m)
	if err != nil {
		t.Fatal(err)
	}
	if lama.FormatRankfile(rf) == "" {
		t.Fatal("format rankfile")
	}

	// Collectives, hierarchical included.
	model := lama.NewModel(lama.NewTorusNetwork(lama.TorusDims{X: 2, Y: 1, Z: 1}))
	for _, op := range []lama.CollOp{lama.Broadcast, lama.AllreduceRing, lama.Barrier} {
		if _, err := lama.RunCollective(op, c, m, model, 1024); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	if _, err := lama.RunHierarchicalCollective(lama.AllreduceRD, c, m, model, 1024); err != nil {
		t.Fatal(err)
	}

	// Launch under a specific binding: no process escapes its PU.
	plan, err := lama.Bind(c, m, lama.BindSpecific, lama.LevelPU)
	if err != nil {
		t.Fatal(err)
	}
	job, err := lama.NewRuntime(c).Launch(m, plan, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}

	// Summaries and metrics.
	if s := lama.Summarize(c, m); s.Ranks != 24 {
		t.Fatal("summary")
	}
}
