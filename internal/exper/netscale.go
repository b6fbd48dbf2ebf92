package exper

import (
	"context"
	"fmt"
	"time"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netorder"
	"lama/internal/netsim"
	"lama/internal/obs"
)

func init() {
	register("E23", "extension: network-aware placement at scale (delta-J refinement, 4k-100k ranks)", runE23)
}

// NetCostRow is one scale point of the network-aware placement series:
// the cost of building the incremental evaluator, one full evaluation,
// the ordering and refinement passes, and the per-swap refinement cost —
// the number that must stay flat as np grows (lamabench -net prints them).
type NetCostRow struct {
	Pattern string
	Network string
	NP      int
	Nodes   int
	NNZ     int
	BuildUs float64
	// FullEvalUs is one Model.Evaluate pass — the O(nnz) cost a
	// naive refiner would pay per candidate swap.
	FullEvalUs float64
	OrderUs    float64
	RefineUs   float64
	Swaps      int
	// PerSwapNs is RefineUs spread over the candidate evaluations the
	// refinement actually priced (its swaps); 0 when no swap was taken.
	PerSwapNs float64
	JBefore   float64
	JOrdered  float64
	JAfter    float64
}

// NetScale runs the network-aware placement series: for each np it maps
// a ring job cycled across np/16 nehalem-ep nodes (the worst case for
// neighbor traffic), then times evaluator construction, one full
// evaluation, the node-ordering pass, and delta-J refinement. The
// mapping uses the scatter layout so the passes have real work. Timings use the wall clock; placements and J
// values are bit-reproducible run to run.
func NetScale(netSpec string, nps []int, refine bool, o *obs.Observer) ([]NetCostRow, error) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		return nil, fmt.Errorf("exper: nehalem-ep preset missing")
	}
	var rows []NetCostRow
	for _, np := range nps {
		nodes := np / 16
		if nodes < 1 {
			nodes = 1
		}
		c := cluster.Homogeneous(nodes, sp)
		net, err := netsim.ParseNetwork(netSpec, nodes)
		if err != nil {
			return nil, err
		}
		mo := netsim.NewModel(net)
		mapper, err := core.NewMapper(c, core.MustParseLayout("ncsbh"), core.Options{Obs: o})
		if err != nil {
			return nil, err
		}
		m, err := mapper.Map(np)
		if err != nil {
			return nil, err
		}
		tm := commpat.Ring(np, 4096)

		row := NetCostRow{Pattern: "ring", Network: net.Name(), NP: np, Nodes: nodes, NNZ: tm.NNZ()}

		t0 := time.Now()
		pr, err := mo.Pricing(c)
		if err != nil {
			return nil, err
		}
		cost, err := netsim.NewCost(pr, tm, m)
		if err != nil {
			return nil, err
		}
		row.BuildUs = float64(time.Since(t0)) / float64(time.Microsecond)
		row.JBefore = cost.J()

		t0 = time.Now()
		if _, err := mo.Evaluate(c, m, tm); err != nil {
			return nil, err
		}
		row.FullEvalUs = float64(time.Since(t0)) / float64(time.Microsecond)

		t0 = time.Now()
		ordered, ores, err := netorder.OrderNodes(c, mo, tm, m)
		if err != nil {
			return nil, err
		}
		row.OrderUs = float64(time.Since(t0)) / float64(time.Microsecond)
		row.JOrdered = ores.JAfter
		row.JAfter = ores.JAfter

		if refine {
			t0 = time.Now()
			_, rres, err := netorder.RefineMap(context.Background(), c, mo, tm, ordered, netorder.PartnerNode, 0)
			if err != nil {
				return nil, err
			}
			row.RefineUs = float64(time.Since(t0)) / float64(time.Microsecond)
			row.Swaps = rres.Swaps
			row.JAfter = rres.JAfter
			if rres.Swaps > 0 {
				row.PerSwapNs = row.RefineUs * 1000 / float64(rres.Swaps)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// NetScaleTable renders the series for the experiment harness and
// lamabench's text output.
func NetScaleTable(netSpec string, rows []NetCostRow) *metrics.Table {
	t := metrics.NewTable(
		"E23 / network-aware placement at scale ("+netSpec+", ring, 16 ranks/node)",
		"np", "nodes", "nnz", "build (ms)", "full eval (ms)", "order (ms)", "refine (ms)",
		"swaps", "per-swap (µs)", "J before", "J refined", "gain %")
	for _, r := range rows {
		gain := 0.0
		if r.JBefore > 0 {
			gain = 100 * (r.JBefore - r.JAfter) / r.JBefore
		}
		t.AddRow(metrics.I(r.NP), metrics.I(r.Nodes), metrics.I(r.NNZ),
			metrics.F(r.BuildUs/1000, 2), metrics.F(r.FullEvalUs/1000, 2),
			metrics.F(r.OrderUs/1000, 2), metrics.F(r.RefineUs/1000, 2),
			metrics.I(r.Swaps), metrics.F(r.PerSwapNs/1000, 2),
			metrics.F(r.JBefore, 0), metrics.F(r.JAfter, 0), metrics.F(gain, 1))
	}
	return t
}

// runE23 is the harness entry: a sampled series by default, the full
// 4k → 100k scaling sweep with -full (the 100k point is the paper-scale
// claim: per-swap cost independent of np).
func runE23(o Options) ([]*metrics.Table, error) {
	nps := []int{1024, 4096}
	if o.Full {
		nps = []int{4096, 16384, 65536, 102400}
	}
	const netSpec = "dragonfly:8"
	rows, err := NetScale(netSpec, nps, true, o.Obs)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{NetScaleTable(netSpec, rows)}, nil
}
