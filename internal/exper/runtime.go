package exper

import (
	"lama/internal/cluster"
	"lama/internal/coll"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
)

func init() {
	register("E14", "extension: MPI collective cost under different mappings", runE14)
}

// runE14 costs the classic MPI collective algorithms under three mappings:
// collectives synchronize round by round, so a mapping that keeps whole
// rounds on-node shortens every round — another face of the paper's
// placement-matters argument.
func runE14(Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	mo := netsim.NewModel(netsim.NewFlat())

	layouts := []struct{ name, layout string }{
		{"pack (csbnh)", "csbnh"},
		{"cycle (ncsbh)", "ncsbh"},
		{"pack threads (hcsbn)", "hcsbn"},
	}
	ops := []coll.Op{coll.Broadcast, coll.AllreduceRD, coll.AllreduceRing, coll.Alltoall, coll.Barrier}

	var out []*metrics.Table
	// np=16 fits one node when packed (whole rounds stay local); np=64
	// forces every mapping across nodes (rounds bounded by the network).
	for _, np := range []int{16, 64} {
		t := metrics.NewTable(
			"E14 / collective completion time, 1 MiB, np="+metrics.I(np)+", 8 nodes (flat network)",
			"collective", "rounds", "messages", "pack (ms)", "cycle (ms)", "threads (ms)")
		for _, op := range ops {
			row := []string{op.String(), "", ""}
			for i, l := range layouts {
				mapper, err := core.NewMapper(c, core.MustParseLayout(l.layout), core.Options{})
				if err != nil {
					return nil, err
				}
				m, err := mapper.Map(np)
				if err != nil {
					return nil, err
				}
				res, err := coll.Run(op, c, m, mo, 1<<20)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					row[1] = metrics.I(res.Rounds)
					row[2] = metrics.I(res.Messages)
				}
				row = append(row, metrics.F(res.TimeUs/1000, 3))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

func init() {
	register("E16", "extension: hierarchy-aware vs flat collectives", runE16)
}

// runE16 compares flat binomial collectives against their two-level
// node-leader variants across mappings — the related-work optimization
// ("hierarchy aware collective communications") whose benefit depends on
// how many ranks the mapping co-locates.
func runE16(Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(6, sp)
	np := 60
	mo := netsim.NewModel(netsim.NewFlat())

	t := metrics.NewTable("E16 / flat vs hierarchical collectives, 1 MiB, np=60, 6 nodes",
		"mapping", "op", "flat (ms)", "hierarchical (ms)", "improvement")
	for _, l := range []struct{ name, layout string }{
		{"pack (csbnh)", "csbnh"},
		{"cycle (ncsbh)", "ncsbh"},
	} {
		mapper, err := core.NewMapper(c, core.MustParseLayout(l.layout), core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := mapper.Map(np)
		if err != nil {
			return nil, err
		}
		for _, op := range []coll.Op{coll.Broadcast, coll.AllreduceRD} {
			flat, err := coll.Run(op, c, m, mo, 1<<20)
			if err != nil {
				return nil, err
			}
			hier, err := coll.RunHierarchical(op, c, m, mo, 1<<20)
			if err != nil {
				return nil, err
			}
			t.AddRow(l.name, op.String(),
				metrics.F(flat.TimeUs/1000, 3),
				metrics.F(hier.TimeUs/1000, 3),
				metrics.Pct(hier.TimeUs, flat.TimeUs))
		}
	}
	return []*metrics.Table{t}, nil
}
