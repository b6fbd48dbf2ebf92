package exper

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/permute"
	"lama/internal/place"
)

func init() {
	register("E1", "Table I: mappable resource levels", runE1)
	register("E2", "Figure 1: recursive mapper vs explicit loop nest", runE2)
	register("E3", "Figure 2: 24 processes, scbnh layout, two nodes", runE3)
	register("E4", "§V claim: 362,880 layout permutations", runE4)
}

// runE1 regenerates Table I from the implementation's own level metadata.
func runE1(Options) ([]*metrics.Table, error) {
	t := metrics.NewTable("E1 / Table I — resources and abbreviations",
		"resource", "abbreviation", "description")
	for _, l := range hw.Levels {
		t.AddRow(l.String(), l.Abbrev(), l.Description())
	}
	return []*metrics.Table{t}, nil
}

// runE2 cross-validates the Figure 1 recursion against the iterative
// reference mapper over randomized clusters, layouts, and options.
func runE2(o Options) ([]*metrics.Table, error) {
	r := rand.New(rand.NewSource(o.Seed + 2))
	trials := 200
	if o.Full {
		trials = 2000
	}
	mismatches, failures, compared := 0, 0, 0
	for i := 0; i < trials; i++ {
		c := randomCluster(r)
		layout := randomLayout(r)
		opts := core.Options{Oversubscribe: r.Intn(2) == 1, PEsPerProc: 1 + r.Intn(2)}
		np := 1 + r.Intn(2*c.TotalUsablePUs()+1)
		m, err := core.NewMapper(c, layout, opts)
		if err != nil {
			failures++
			continue
		}
		a, errA := m.Map(np)
		b, errB := m.MapReference(np)
		if (errA == nil) != (errB == nil) {
			mismatches++
			continue
		}
		if errA != nil {
			continue
		}
		compared++
		if !equalMaps(a, b) {
			mismatches++
		}
	}
	t := metrics.NewTable("E2 / Figure 1 — recursion equals explicit loop nest",
		"trials", "maps compared", "mismatches", "setup failures")
	t.AddRow(metrics.I(trials), metrics.I(compared), metrics.I(mismatches), metrics.I(failures))
	if mismatches != 0 {
		return nil, fmt.Errorf("exper: E2 found %d mismatches", mismatches)
	}
	return []*metrics.Table{t}, nil
}

// runE3 regenerates the Figure 2 example mapping: 24 processes, layout
// scbnh, two nodes. The primary reconstruction uses 2 sockets x 3 cores x
// 2 hwthreads per node (24 PUs total), which exercises the wrap onto the
// second hardware thread that §IV-C describes; the wide variant
// (4 sockets x 3 cores, single-threaded) shows the socket scatter alone.
func runE3(Options) ([]*metrics.Table, error) {
	var out []*metrics.Table
	for _, variant := range []struct {
		preset string
		title  string
	}{
		{"fig2", "E3 / Figure 2 — scbnh, 2 nodes x (2s x 3c x 2h)"},
		{"fig2-wide", "E3 / Figure 2 (wide variant) — scbnh, 2 nodes x (4s x 3c x 1h)"},
	} {
		sp, ok := hw.Preset(variant.preset)
		if !ok {
			return nil, fmt.Errorf("exper: preset %q missing", variant.preset)
		}
		c := cluster.Homogeneous(2, sp)
		mapper, err := core.NewMapper(c, core.MustParseLayout("scbnh"), core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := mapper.Map(24)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(c); err != nil {
			return nil, err
		}
		t := metrics.NewTable(variant.title,
			"rank", "node", "socket", "core", "hwthread", "pu")
		for i := range m.Placements {
			p, cv := &m.Placements[i], m.Coords(i)
			t.AddRow(
				metrics.I(p.Rank), p.NodeName,
				metrics.I(cv[hw.LevelSocket]),
				metrics.I(cv[hw.LevelCore]),
				metrics.I(cv[hw.LevelPU]),
				metrics.I(p.PU()),
			)
		}
		out = append(out, t)
	}
	return out, nil
}

// runE4 enumerates full 9-level layouts and verifies each one parses and
// produces a complete, valid mapping; it also counts how many distinct
// placements the layout space reaches on a reference cluster. The paper
// claims 362,880 permutations; without Full a deterministic 1-in-72 sample
// (5,040 layouts) is checked. The mapping runs stream through the parallel
// sweep engine as "lama" jobs (place.SweepEach, one reused Mapper per
// worker) — the maps are reduced to placement signatures on the fly rather
// than held in memory.
func runE4(o Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(2, sp)
	np := 32

	stride := 72
	if o.Full {
		stride = 1
	}
	total, failedParse := 0, 0
	var firstErr error
	var layouts []core.Layout
	permute.Each(hw.NumLevels, func(perm []int) bool {
		total++
		if (total-1)%stride != 0 {
			return true
		}
		abbrev := ""
		for _, p := range perm {
			abbrev += hw.Level(p).Abbrev()
		}
		layout, err := core.ParseLayout(abbrev)
		if err != nil {
			failedParse++
			firstErr = err
			return true
		}
		layouts = append(layouts, layout)
		return true
	})
	if total != permute.Factorial(hw.NumLevels) {
		return nil, fmt.Errorf("exper: enumerated %d layouts, want %d", total, permute.Factorial(hw.NumLevels))
	}
	if failedParse != 0 {
		return nil, fmt.Errorf("exper: E4 parse failures %d (first: %v)", failedParse, firstErr)
	}
	checked := len(layouts)
	var mu sync.Mutex
	distinct := map[string]bool{}
	err := place.SweepEach(context.Background(), lamaJobs(c, layouts, np, o.Obs), 0, func(i int, m *core.Map) error {
		if m.NumRanks() != np {
			return fmt.Errorf("exper: layout %q placed %d of %d ranks", layouts[i], m.NumRanks(), np)
		}
		sig := ""
		for i := range m.Placements {
			sig += fmt.Sprintf("%d:%d;", m.Placements[i].Node, m.Placements[i].PU())
		}
		mu.Lock()
		distinct[sig] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("exper: E4 map failure: %v", err)
	}
	mode := "sampled (1 in 72)"
	if o.Full {
		mode = "exhaustive"
	}
	t := metrics.NewTable("E4 / §V — the 362,880 layout permutations",
		"mode", "total layouts", "checked", "complete+valid", "distinct placements (np=32, 2 nodes)")
	t.AddRow(mode, metrics.I(total), metrics.I(checked), metrics.I(checked), metrics.I(len(distinct)))
	return []*metrics.Table{t}, nil
}

// ---- shared helpers ----

// randomCluster builds a small random, possibly heterogeneous and
// restricted cluster (mirrors the core package's property tests).
func randomCluster(r *rand.Rand) *cluster.Cluster {
	n := 1 + r.Intn(4)
	specs := make([]hw.Spec, n)
	for i := range specs {
		specs[i] = hw.Spec{
			Boards: 1 + r.Intn(2), Sockets: 1 + r.Intn(3), NUMAs: 1 + r.Intn(2),
			L3s: 1, L2s: 1 + r.Intn(2), L1s: 1, Cores: 1 + r.Intn(3), PUs: 1 + r.Intn(2),
			ThreadMajorOS: r.Intn(2) == 1,
		}
	}
	c := cluster.FromSpecs(specs...)
	for _, node := range c.Nodes {
		if r.Intn(3) == 0 {
			lvl := hw.Level(1 + r.Intn(hw.NumLevels-1))
			if cnt := node.Topo.NumObjects(lvl); cnt > 1 {
				node.Topo.SetAvailable(lvl, r.Intn(cnt), false)
			}
		}
	}
	return c
}

func randomLayout(r *rand.Rand) core.Layout {
	perm := r.Perm(hw.NumLevels)
	k := 1 + r.Intn(hw.NumLevels)
	levels := make([]hw.Level, 0, k)
	hasNode := false
	for _, p := range perm[:k] {
		levels = append(levels, hw.Level(p))
		if hw.Level(p) == hw.LevelMachine {
			hasNode = true
		}
	}
	if !hasNode {
		levels[r.Intn(len(levels))] = hw.LevelMachine
	}
	l, err := core.NewLayout(levels...)
	if err != nil {
		panic(err)
	}
	return l
}

func equalMaps(a, b *core.Map) bool {
	if a.NumRanks() != b.NumRanks() || a.Sweeps != b.Sweeps {
		return false
	}
	for i := range a.Placements {
		pa, pb := &a.Placements[i], &b.Placements[i]
		if pa.Node != pb.Node || pa.Leaf != pb.Leaf || pa.Oversubscribed != pb.Oversubscribed {
			return false
		}
		if len(pa.PUs) != len(pb.PUs) {
			return false
		}
		for j := range pa.PUs {
			if pa.PUs[j] != pb.PUs[j] {
				return false
			}
		}
	}
	return true
}
