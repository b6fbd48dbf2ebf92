package exper

import (
	"context"
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
	"lama/internal/place"
	_ "lama/internal/place/all" // link the registry's built-in policies
	"lama/internal/torus"
)

func init() {
	register("E9", "§II comparators: by-node/by-slot/MPICH2/BlueGene-XYZT vs LAMA", runE9)
}

// runE9 compares the LAMA against its related-work comparators on a torus
// machine (a BlueGene/P-like installation): equivalence where a baseline
// is expressible as a layout, and communication cost (including torus link
// congestion) where strategies genuinely differ.
func runE9(Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("bgp-node") // 4 single-thread cores
	dims := torus.Dims{X: 4, Y: 4, Z: 2}
	c := cluster.Homogeneous(dims.Size(), sp)
	np := dims.Size() * 4 // 128: fully packed

	// Part 1: equivalence. By-slot == LAMA csbnh, by-node == LAMA ncsbh,
	// torus txyz == by-slot on the linearized node order.
	t1 := metrics.NewTable("E9a / baseline equals its LAMA layout (np=128, 32 nodes)",
		"baseline", "LAMA layout", "identical placements")
	check := func(name, layout string, base *core.Map) error {
		mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
		if err != nil {
			return err
		}
		m, err := mapper.Map(np)
		if err != nil {
			return err
		}
		same := "yes"
		for i := range m.Placements {
			if m.Placements[i].Node != base.Placements[i].Node ||
				m.Placements[i].PU() != base.Placements[i].PU() {
				same = "NO"
				break
			}
		}
		t1.AddRow(name, layout, same)
		return nil
	}
	// Every comparator resolves through the policy registry, the same path
	// the CLIs use.
	tdims := [3]int{dims.X, dims.Y, dims.Z}
	bySlot, err := place.Place(context.Background(), "by-slot", &place.Request{Cluster: c, NP: np})
	if err != nil {
		return nil, err
	}
	if err := check("by-slot", "csbnh", bySlot); err != nil {
		return nil, err
	}
	byNode, err := place.Place(context.Background(), "by-node", &place.Request{Cluster: c, NP: np})
	if err != nil {
		return nil, err
	}
	if err := check("by-node", "ncsbh", byNode); err != nil {
		return nil, err
	}
	txyz, err := place.Place(context.Background(), "torus", &place.Request{
		Cluster: c, NP: np, TorusDims: tdims, TorusOrder: "txyz",
	})
	if err != nil {
		return nil, err
	}
	if err := check("torus txyz", "csbnh", txyz); err != nil {
		return nil, err
	}

	// Part 2: cost comparison on torus-aware patterns.
	mo := netsim.NewModel(netsim.NewTorus3D(dims))
	px, py, pz := commpat.Grid3D(np)
	patterns := []struct {
		name string
		tm   *commpat.Matrix
	}{
		{"stencil3d", commpat.Stencil3D(px, py, pz, 1<<20, true)},
		{"alltoall", commpat.AllToAll(np, 1<<18)},
	}
	// random (seed 1) is last: it is also every table's baseline.
	strategies := []strategy{
		{"LAMA csbnh (pack)", "lama", place.Request{Layout: core.MustParseLayout("csbnh")}},
		{"LAMA ncsbh (cycle)", "lama", place.Request{Layout: core.MustParseLayout("ncsbh")}},
		{"torus xyzt", "torus", place.Request{TorusDims: tdims, TorusOrder: "xyzt"}},
		{"torus txyz", "torus", place.Request{TorusDims: tdims, TorusOrder: "txyz"}},
		{"mpich2 pack@socket", "pack", place.Request{PackLevel: hw.LevelSocket}},
		{"random", "random", place.Request{Seed: 1}},
	}
	maps, err := placeAll(c, np, strategies)
	if err != nil {
		return nil, err
	}
	out := []*metrics.Table{t1}
	for _, p := range patterns {
		t2 := metrics.NewTable("E9b / strategy cost on "+p.name+" (3-D torus network)",
			"strategy", "total time (ms)", "hop-bytes (MB-hops)", "max link load (MB)", "vs random")
		rndRep, err := mo.Evaluate(c, maps[len(maps)-1], p.tm)
		if err != nil {
			return nil, err
		}
		for i, s := range strategies {
			rep, err := mo.Evaluate(c, maps[i], p.tm)
			if err != nil {
				return nil, err
			}
			t2.AddRow(s.label,
				metrics.F(rep.TotalTime/1000, 2),
				metrics.F(rep.HopBytes/1e6, 1),
				metrics.F(rep.MaxLinkLoad/1e6, 1),
				metrics.Pct(rep.TotalTime, rndRep.TotalTime))
		}
		out = append(out, t2)
	}
	return out, nil
}

// strategy is one labeled registry run of a comparison exhibit; placeAll
// fills in the request's Cluster and NP.
type strategy struct {
	label, policy string
	req           place.Request
}

// placeAll places np ranks on c once per strategy, as one place.Sweep, and
// returns the maps in strategy order.
func placeAll(c *cluster.Cluster, np int, ss []strategy) ([]*core.Map, error) {
	reqs := make([]place.Request, len(ss))
	jobs := make([]place.Job, len(ss))
	for i, s := range ss {
		p, ok := place.Lookup(s.policy)
		if !ok {
			return nil, fmt.Errorf("exper: unknown policy %q", s.policy)
		}
		reqs[i] = s.req
		reqs[i].Cluster, reqs[i].NP = c, np
		jobs[i] = place.Job{Policy: p, Req: &reqs[i]}
	}
	return place.Sweep(context.Background(), jobs, 0)
}
