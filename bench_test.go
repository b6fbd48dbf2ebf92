package lama_test

import (
	"context"
	"testing"

	"lama"
	"lama/internal/cluster"
	"lama/internal/exper"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/permute"
)

// One benchmark per paper exhibit (DESIGN.md §4): each regenerates the
// corresponding table/figure through the experiment harness, so
// `go test -bench=E` both reproduces the exhibits and times them.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exper.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exper.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1TableI(b *testing.B)             { benchExperiment(b, "E1") }
func BenchmarkE2Fig1Recursion(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Fig2Example(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4Permutations(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5GTC(b *testing.B)                { benchExperiment(b, "E5") }
func BenchmarkE6NAS(b *testing.B)                { benchExperiment(b, "E6") }
func BenchmarkE7Heterogeneous(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8MappingScalability(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9Baselines(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Binding(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11CLILevels(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12TrafficAware(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13AppIterations(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14Collectives(b *testing.B)       { benchExperiment(b, "E14") }

// Micro-benchmarks of the core operations behind the exhibits.

func benchCluster(b *testing.B, nodes int) *lama.Cluster {
	b.Helper()
	spec, ok := lama.Preset("nehalem-ep")
	if !ok {
		b.Fatal("preset missing")
	}
	return lama.Homogeneous(nodes, spec)
}

func benchMapper(b *testing.B, nodes, np int, layout string) {
	b.Helper()
	c := benchCluster(b, nodes)
	mapper, err := lama.NewMapper(c, lama.MustParseLayout(layout), lama.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(np); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMap4Nodes64Ranks(b *testing.B)     { benchMapper(b, 4, 64, "scbnh") }
func BenchmarkMap64Nodes1024Ranks(b *testing.B)  { benchMapper(b, 64, 1024, "scbnh") }
func BenchmarkMap256Nodes4096Ranks(b *testing.B) { benchMapper(b, 256, 4096, "scbnh") }
func BenchmarkMapFullLayout(b *testing.B)        { benchMapper(b, 16, 256, "nbsNL3L2L1ch") }

// BenchmarkMapReuse measures the steady-state hot path: one Mapper reused
// across runs, so the pruned trees and claim arrays are warm and each
// leaf's usable PUs are read from its topology's window table (the
// deployment pattern of a mapping agent serving a cluster).
func BenchmarkMapReuse64Nodes1024Ranks(b *testing.B) {
	c := benchCluster(b, 64)
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapper.Map(1024); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapObsDisabled pins the zero-cost-when-disabled contract of the
// observability layer: with no Observer the steady-state Map path must stay
// at its allocation floor (3 allocs/op, the figure TestMapAllocationsSteadyState
// asserts), with no clock reads and no event construction.
func BenchmarkMapObsDisabled(b *testing.B) {
	c := benchCluster(b, 64)
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{Obs: nil})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapper.Map(1024); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapObsEnabled is the companion: full instrumentation (discard
// sink, live registry, phase timer) on the same workload, so the overhead
// of observability is one `benchstat` away.
func BenchmarkMapObsEnabled(b *testing.B) {
	c := benchCluster(b, 64)
	o := &obs.Observer{Sink: obs.Discard, Metrics: obs.NewRegistry(), Phases: obs.NewPhaseTimer()}
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapper.Map(1024); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapAfterSwap4096 measures what one cluster event costs a pooled
// mapper: each iteration re-points the mapper at the other of two
// copy-on-write sibling snapshots of a 4096-node cluster, which differ in
// one node's availability, and maps 16 ranks.
func BenchmarkMapAfterSwap4096(b *testing.B) {
	s1 := cluster.SnapshotOf(benchCluster(b, 4096))
	s2, changed := s1.FailPUs(0, hw.NewCPUSet(0))
	if changed == 0 {
		b.Fatal("FailPUs changed nothing")
	}
	siblings := [2]*cluster.Snapshot{s1, s2}
	mapper, err := lama.NewMapper(s1.Cluster(), lama.MustParseLayout("csbnh"), lama.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapper.Map(16); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapper.Cluster = siblings[(i+1)%2].Cluster()
		if _, err := mapper.Map(16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepLayouts120(b *testing.B) {
	c := benchCluster(b, 8)
	letters := "nbsch"
	policy, _ := lama.LookupPolicy("lama")
	var jobs []lama.PlaceJob
	permute.Each(len(letters), func(perm []int) bool {
		s := make([]byte, len(perm))
		for i, p := range perm {
			s[i] = letters[p]
		}
		jobs = append(jobs, lama.PlaceJob{Policy: policy, Req: &lama.PlaceRequest{
			Cluster: c, NP: 64, Layout: lama.MustParseLayout(string(s)),
		}})
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lama.PlaceSweep(context.Background(), jobs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapReference(b *testing.B) {
	c := benchCluster(b, 16)
	mapper, err := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.MapReference(256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseLayout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lama.ParseLayout("nbsNL3L2L1ch"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBindSpecificCore(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	m, err := mapper.Map(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lama.Bind(c, m, lama.BindSpecific, lama.LevelCore); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateStencil(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("csbnh"), lama.Options{})
	m, err := mapper.Map(128)
	if err != nil {
		b.Fatal(err)
	}
	px, py := lama.Grid2D(128)
	tm := lama.Stencil2D(px, py, 1<<20, true)
	model := lama.NewModel(lama.NewFatTreeNetwork(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(c, m, tm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaunch128Ranks(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	m, err := mapper.Map(128)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := lama.Bind(c, m, lama.BindSpecific, lama.LevelPU)
	if err != nil {
		b.Fatal(err)
	}
	rt := lama.NewRuntime(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := rt.Launch(m, plan, 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := job.CheckEnforcement(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	spec, _ := lama.Preset("power7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lama.NewTopology(spec)
	}
}

func BenchmarkTreeMatch64(b *testing.B) {
	c := benchCluster(b, 8)
	req := &lama.PlaceRequest{Cluster: c, NP: 64, Traffic: lama.GTC(64, 1<<20)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lama.Place(context.Background(), "treematch", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectiveBroadcast(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("csbnh"), lama.Options{})
	m, err := mapper.Map(128)
	if err != nil {
		b.Fatal(err)
	}
	model := lama.NewModel(lama.NewFlatNetwork())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lama.RunCollective(lama.Broadcast, c, m, model, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppSimStencil(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("csbnh"), lama.Options{})
	m, err := mapper.Map(128)
	if err != nil {
		b.Fatal(err)
	}
	px, py := lama.Grid2D(128)
	tm := lama.Stencil2D(px, py, 1<<20, true)
	model := lama.NewModel(lama.NewFatTreeNetwork(4))
	cfg := lama.AppConfig{ComputeUs: 100, Iterations: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lama.SimulateApp(c, m, model, tm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapTraced(b *testing.B) {
	c := benchCluster(b, 8)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.MapTraced(128, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankfileRoundTrip(b *testing.B) {
	c := benchCluster(b, 4)
	mapper, _ := lama.NewMapper(c, lama.MustParseLayout("scbnh"), lama.Options{})
	m, err := mapper.Map(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := lama.RankfileFromMap(m)
		if err != nil {
			b.Fatal(err)
		}
		f2, err := lama.ParseRankfile(lama.FormatRankfile(f))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lama.ApplyRankfile(f2, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16HierCollectives(b *testing.B) { benchExperiment(b, "E16") }

func BenchmarkE17AllocationSpread(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18CostModelAblation(b *testing.B) { benchExperiment(b, "E18") }

func BenchmarkE19ReorderVsRemap(b *testing.B) { benchExperiment(b, "E19") }

func BenchmarkE20PlanningCost(b *testing.B) { benchExperiment(b, "E20") }
