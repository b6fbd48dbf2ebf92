package exper

import (
	"context"
	"sort"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/parallel"
	"lama/internal/permute"
	"lama/internal/place"
	"lama/internal/torus"
)

func init() {
	register("E5", "§II motivation [2]: GTC placement tuning", runE5)
	register("E6", "§II motivation [3]: NAS placement sensitivity", runE6)
}

// evalLayout maps np ranks with a layout and evaluates a traffic matrix.
func evalLayout(c *cluster.Cluster, mo *netsim.Model, layout string, np int,
	tm *commpat.Matrix) (*netsim.Report, error) {
	mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		return nil, err
	}
	m, err := mapper.Map(np)
	if err != nil {
		return nil, err
	}
	return mo.Evaluate(c, m, tm)
}

// lamaJobs builds one "lama" sweep job per layout, all mapping np ranks
// onto c.
func lamaJobs(c *cluster.Cluster, layouts []core.Layout, np int, ob *obs.Observer) []place.Job {
	lama, _ := place.Lookup("lama") // registered by place itself
	reqs := make([]place.Request, len(layouts))
	jobs := make([]place.Job, len(layouts))
	for i, l := range layouts {
		reqs[i] = place.Request{Cluster: c, NP: np, Layout: l, Opts: core.Options{Obs: ob}}
		jobs[i] = place.Job{Policy: lama, Req: &reqs[i]}
	}
	return jobs
}

// sweepLayouts evaluates every layout concurrently, returning per-layout
// reports in layout order. Mapping goes through the parallel sweep engine
// (place.Sweep over "lama" jobs, with per-worker mapper reuse); the network
// evaluations then fan out over the resulting maps.
func sweepLayouts(c *cluster.Cluster, mo *netsim.Model, layouts []string, np int,
	tm *commpat.Matrix, ob *obs.Observer) ([]*netsim.Report, error) {
	parsed := make([]core.Layout, len(layouts))
	for i, s := range layouts {
		var err error
		if parsed[i], err = core.ParseLayout(s); err != nil {
			return nil, err
		}
	}
	maps, err := place.Sweep(context.Background(), lamaJobs(c, parsed, np, ob), 0)
	if err != nil {
		return nil, err
	}
	return parallel.Map(len(maps), 0, func(i int) (*netsim.Report, error) {
		return mo.Evaluate(c, maps[i], tm)
	})
}

// bestOfSweep returns the layout with the lowest TotalTime.
func bestOfSweep(layouts []string, reports []*netsim.Report) (string, float64) {
	best, bestT := "", 0.0
	for i, rep := range reports {
		if best == "" || rep.TotalTime < bestT {
			best, bestT = layouts[i], rep.TotalTime
		}
	}
	return best, bestT
}

// intraLayouts enumerates every layout over the letters n, b, s, c, h
// (120 permutations) — the regular-pattern space a user would sweep when
// tuning placement.
func intraLayouts() []string {
	letters := []hw.Level{hw.LevelMachine, hw.LevelBoard, hw.LevelSocket, hw.LevelCore, hw.LevelPU}
	var out []string
	permute.Each(len(letters), func(perm []int) bool {
		s := ""
		for _, p := range perm {
			s += letters[p].Abbrev()
		}
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out
}

// runE5 realizes the GTC motivation: sweep the 120 five-letter layouts for
// a GTC-like traffic pattern on several network models and report how much
// the best tuned layout improves over the by-slot default. The paper's
// cited study [2] reports up to ~30% application improvement from tuned
// placement; the reproduction checks the shape (tuned placement wins by
// tens of percent of communication cost), not the absolute number.
func runE5(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	nodes := 8
	c := cluster.Homogeneous(nodes, sp)
	np := 64
	tm := commpat.GTC(np, 1<<20)

	networks := []netsim.Network{
		netsim.NewFlat(),
		netsim.NewFatTree(4),
		netsim.NewTorus3D(torus.Dims{X: 4, Y: 2, Z: 1}),
		netsim.NewDragonfly(4),
	}
	t := metrics.NewTable("E5 / GTC-like toroidal exchange — tuned layout vs defaults (np=64, 8 nodes)",
		"network", "layout", "total time (ms)", "inter-node MB", "vs by-slot")
	for _, net := range networks {
		mo := netsim.NewModel(net)
		base, err := evalLayout(c, mo, "csbnh", np, tm)
		if err != nil {
			return nil, err
		}
		layouts := intraLayouts()
		reports, err := sweepLayouts(c, mo, layouts, np, tm, o.Obs)
		if err != nil {
			return nil, err
		}
		bestLayout, bestTime := bestOfSweep(layouts, reports)
		if base.TotalTime < bestTime {
			bestLayout, bestTime = "csbnh", base.TotalTime
		}
		for _, row := range []struct {
			name   string
			layout string
		}{
			{"by-slot (default)", "csbnh"},
			{"by-node", "ncsbh"},
			{"by-socket", "scbnh"},
			{"tuned: " + bestLayout, bestLayout},
		} {
			rep, err := evalLayout(c, mo, row.layout, np, tm)
			if err != nil {
				return nil, err
			}
			t.AddRow(net.Name(), row.name,
				metrics.F(rep.TotalTime/1000, 3),
				metrics.F(rep.InterBytes/1e6, 1),
				metrics.Pct(rep.TotalTime, base.TotalTime))
		}
	}
	return []*metrics.Table{t}, nil
}

// runE6 realizes the NAS motivation: for each NAS proxy pattern, sweep the
// 120-layout space and report the best, worst, and default costs. The
// cited study [3] shows placement changes NAS performance measurably; the
// reproduction's check is that the min-max spread is substantial and that
// which layout wins depends on the pattern.
func runE6(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	np := 64
	mo := netsim.NewModel(netsim.NewFatTree(4))

	t := metrics.NewTable("E6 / NAS proxy placement sensitivity (np=64, 8 nodes, fat-tree)",
		"pattern", "best layout", "best (ms)", "worst (ms)", "default csbnh (ms)", "spread")
	for _, p := range []commpat.Pattern{
		{Name: "nas-cg", Gen: commpat.NASCG},
		{Name: "nas-mg", Gen: commpat.NASMG},
		{Name: "nas-ft", Gen: commpat.NASFT},
		{Name: "nas-lu", Gen: commpat.NASLU},
	} {
		tm := p.Gen(np, 1<<20)
		layouts := intraLayouts()
		reports, err := sweepLayouts(c, mo, layouts, np, tm, o.Obs)
		if err != nil {
			return nil, err
		}
		best, bestT := bestOfSweep(layouts, reports)
		worstT := 0.0
		for _, rep := range reports {
			if rep.TotalTime > worstT {
				worstT = rep.TotalTime
			}
		}
		def, err := evalLayout(c, mo, "csbnh", np, tm)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, best,
			metrics.F(bestT/1000, 3), metrics.F(worstT/1000, 3),
			metrics.F(def.TotalTime/1000, 3),
			metrics.Pct(bestT, worstT))
	}
	return []*metrics.Table{t}, nil
}
