package lama_test

import (
	"fmt"

	"lama"
)

// ExampleParseLayout shows layout strings and their iteration order.
func ExampleParseLayout() {
	layout, _ := lama.ParseLayout("scbnh")
	fmt.Println(layout)
	fmt.Println(layout.Levels()[0], "varies fastest")
	// Output:
	// scbnh
	// socket varies fastest
}

// ExampleMapper_Map reproduces the start of the paper's Figure 2.
func ExampleMapper_Map() {
	spec, _ := lama.Preset("fig2") // 2 sockets x 3 cores x 2 threads
	cluster := lama.Homogeneous(2, spec)
	mapper, _ := lama.NewMapper(cluster, lama.MustParseLayout("scbnh"), lama.Options{})
	m, _ := mapper.Map(4)
	for r, p := range m.Placements {
		fmt.Printf("rank %d -> %s socket %d pu %d\n",
			p.Rank, p.NodeName, m.Coords(r)[lama.LevelSocket], p.PU())
	}
	// Output:
	// rank 0 -> node0 socket 0 pu 0
	// rank 1 -> node0 socket 1 pu 6
	// rank 2 -> node0 socket 0 pu 2
	// rank 3 -> node0 socket 1 pu 8
}

// ExampleBind shows binding widths (paper §III-B).
func ExampleBind() {
	spec, _ := lama.Preset("fig2")
	cluster := lama.Homogeneous(1, spec)
	mapper, _ := lama.NewMapper(cluster, lama.MustParseLayout("scbnh"), lama.Options{})
	m, _ := mapper.Map(2)
	plan, _ := lama.Bind(cluster, m, lama.BindSpecific, lama.LevelSocket)
	fmt.Printf("socket binding width: %d PUs\n", plan.Bindings[0].Width)
	// Output:
	// socket binding width: 6 PUs
}

// ExampleParseArgs shows the mpirun-style CLI levels (paper §V).
func ExampleParseArgs() {
	req, _ := lama.ParseArgs([]string{"-np", "8", "--map-by", "socket"})
	fmt.Printf("level %d lowers to layout %s\n", req.Level, req.Layout)
	// Output:
	// level 2 lowers to layout scbnh
}
