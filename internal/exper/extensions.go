package exper

import (
	"context"
	"fmt"

	"lama/internal/appsim"
	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
	"lama/internal/place"
)

func init() {
	register("E12", "extension: traffic-aware (TreeMatch-style) vs pattern-oblivious mapping", runE12)
	register("E13", "extension: application iteration time under different mappings", runE13)
}

// runE12 quantifies the gap the paper's approach leaves open: the LAMA
// applies regular patterns obliviously to the application, while the
// related-work TreeMatch (paper ref [3]) reads the communication matrix.
// For regular traffic the best regular layout should be competitive; for
// irregular traffic the traffic-aware mapper should win.
func runE12(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	np := 64
	mo := netsim.NewModel(netsim.NewFatTree(4))

	patterns := []struct {
		name string
		tm   *commpat.Matrix
	}{
		{"ring (regular)", commpat.Ring(np, 1<<20)},
		{"stencil2d (regular)", func() *commpat.Matrix {
			px, py := commpat.Grid2D(np)
			return commpat.Stencil2D(px, py, 1<<20, true)
		}()},
		{"gtc (mostly regular)", commpat.GTC(np, 1<<20)},
		{"random-pairs (irregular)", commpat.RandomPairs(np, 150, 1<<20, o.Seed+12)},
		{"shuffled cliques (irregular)", cliques(np, 8, 1<<20, o.Seed+13)},
	}

	t := metrics.NewTable("E12 / traffic-aware vs best regular layout (np=64, 8 nodes, fat-tree)",
		"pattern", "best regular layout", "best regular (ms)", "treematch (ms)", "random (ms)", "treematch vs best regular")
	for _, p := range patterns {
		layouts := intraLayouts()
		reports, err := sweepLayouts(c, mo, layouts, np, p.tm, o.Obs)
		if err != nil {
			return nil, err
		}
		bestLayout, bestTime := bestOfSweep(layouts, reports)
		tmMap, err := place.Place(context.Background(), "treematch", &place.Request{Cluster: c, NP: np, Traffic: p.tm})
		if err != nil {
			return nil, err
		}
		tmRep, err := mo.Evaluate(c, tmMap, p.tm)
		if err != nil {
			return nil, err
		}
		rnd, err := place.Place(context.Background(), "random", &place.Request{Cluster: c, NP: np, Seed: o.Seed + 14})
		if err != nil {
			return nil, err
		}
		rndRep, err := mo.Evaluate(c, rnd, p.tm)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, bestLayout,
			metrics.F(bestTime/1000, 3),
			metrics.F(tmRep.TotalTime/1000, 3),
			metrics.F(rndRep.TotalTime/1000, 3),
			metrics.Pct(tmRep.TotalTime, bestTime))
	}
	return []*metrics.Table{t}, nil
}

// cliques builds an irregular pattern: groups of size g communicate
// all-to-all internally, but group membership is a seeded shuffle of the
// rank space, so no regular layout can align with it.
func cliques(n, g int, bytes float64, seed int64) *commpat.Matrix {
	b := commpat.NewBuilder(n)
	perm := shuffled(n, seed)
	for base := 0; base < n; base += g {
		for i := base; i < base+g && i < n; i++ {
			for j := base; j < base+g && j < n; j++ {
				if i != j {
					b.Add(perm[i], perm[j], bytes)
				}
			}
		}
	}
	return b.Build()
}

// shuffled returns a deterministic pseudo-random permutation of 0..n-1
// using a simple multiplicative walk (self-contained, seed-stable).
func shuffled(n int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		state = state*2862933555777941757 + 3037000493
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// runE13 turns mapping quality into application time: a BSP stencil
// application is simulated to completion under several mappings, giving
// the end-to-end speedups that motivate the whole mapping exercise.
func runE13(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	np := 64
	px, py := commpat.Grid2D(np)
	tm := commpat.Stencil2D(px, py, 1<<20, true)
	mo := netsim.NewModel(netsim.NewFatTree(4))
	cfg := appsim.Config{ComputeUs: 500, Iterations: 1000}

	strategies := []strategy{
		{"LAMA csbnh (pack)", "lama", place.Request{Layout: core.MustParseLayout("csbnh")}},
		{"LAMA ncsbh (cycle)", "lama", place.Request{Layout: core.MustParseLayout("ncsbh")}},
		{"LAMA hcsbn (pack threads)", "lama", place.Request{Layout: core.MustParseLayout("hcsbn")}},
		{"treematch", "treematch", place.Request{Traffic: tm}},
		{"slurm plane(8)", "plane", place.Request{BlockSize: 8}},
		{"random", "random", place.Request{Seed: o.Seed + 15}},
	}
	maps, err := placeAll(c, np, strategies)
	if err != nil {
		return nil, err
	}
	var worst *appsim.Result
	results := make([]*appsim.Result, len(maps))
	for i, m := range maps {
		res, err := appsim.Run(c, m, mo, tm, cfg)
		if err != nil {
			return nil, err
		}
		results[i] = res
		if worst == nil || res.TotalUs > worst.TotalUs {
			worst = res
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("E13 / simulated stencil application, %d iterations x %.0f us compute (np=64, 8 nodes)",
			cfg.Iterations, cfg.ComputeUs),
		"strategy", "iteration (us)", "comm share", "bound by", "speedup vs worst")
	for i, s := range strategies {
		r := results[i]
		t.AddRow(s.label,
			metrics.F(r.IterUs, 1),
			metrics.F(r.CommUs/r.IterUs*100, 1)+"%",
			r.BoundBy,
			metrics.F(appsim.Speedup(worst, r), 2)+"x")
	}
	return []*metrics.Table{t}, nil
}
