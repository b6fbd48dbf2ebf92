package exper

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
)

func init() {
	register("E17", "extension: allocation fragmentation and mapping locality", runE17)
}

// runE17 prices allocation fragmentation: the same 16-rank ring job
// mapped onto grants spanning 2, 4, or 8 nodes — each node of the grant
// restricted to 16/span cores, exactly the view a core-granular
// allocation of that spread produces. Fragmented allocations cost more
// to communicate in.
func runE17(Options) ([]*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep") // 8 cores per node

	t := metrics.NewTable("E17b / comm cost of one 16-core job vs allocation spread (ring, flat net)",
		"nodes spanned", "total time (ms)", "inter-node MB")
	mo := netsim.NewModel(netsim.NewFlat())
	tm := commpat.Ring(16, 1<<20)
	for _, span := range []int{2, 4, 8} {
		perNode := 16 / span
		grant := cluster.Homogeneous(span, sp)
		for _, node := range grant.Nodes {
			allowed := &hw.CPUSet{}
			for ci := 0; ci < perNode; ci++ {
				allowed.Or(node.Topo.ObjectAt(hw.LevelCore, ci).PUSet())
			}
			node.Topo.Restrict(allowed)
		}
		mapper, err := core.NewMapper(grant, core.MustParseLayout("csbnh"), core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := mapper.Map(16)
		if err != nil {
			return nil, err
		}
		if got := len(m.RanksByNode()); got != span {
			return nil, fmt.Errorf("exper: engineered spread %d, got %d", span, got)
		}
		rep, err := mo.Evaluate(grant, m, tm)
		if err != nil {
			return nil, err
		}
		t.AddRow(metrics.I(span), metrics.F(rep.TotalTime/1000, 3), metrics.F(rep.InterBytes/1e6, 1))
	}
	return []*metrics.Table{t}, nil
}
