// Toolchain: the full life of a job — the resource manager grants a
// core-granular allocation (possibly fragmented across nodes), the LAMA
// maps onto exactly what was granted, binding freezes the plan, and the
// cost model prices the fragmentation.
package main

import (
	"fmt"
	"log"

	"lama"
)

func main() {
	spec, _ := lama.Preset("nehalem-ep") // 8 cores per node
	pool := lama.Homogeneous(4, spec)
	rm := lama.NewResourceManager(pool)

	// Another tenant holds 12 cores, so our 16-core request is granted
	// 4 cores on node1 plus 8+4 on nodes 2-3.
	if _, err := rm.Alloc(lama.AllocCoreGranular, 12); err != nil {
		log.Fatal(err)
	}
	alloc, err := rm.Alloc(lama.AllocCoreGranular, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("our grant spans %d nodes:\n%s", alloc.Granted.NumNodes(), alloc.Granted.Summary())

	// Map the job onto the grant and price a ring exchange on it,
	// comparing against what a whole-node grant would have cost.
	model := lama.NewModel(lama.NewFatTreeNetwork(4))
	traffic := lama.Ring(16, 1<<20)

	cost := func(c *lama.Cluster) float64 {
		mapper, err := lama.NewMapper(c, lama.MustParseLayout("csbnh"), lama.Options{})
		if err != nil {
			log.Fatal(err)
		}
		m, err := mapper.Map(16)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := model.Evaluate(c, m, traffic)
		if err != nil {
			log.Fatal(err)
		}
		return rep.TotalTime
	}
	fragmented := cost(alloc.Granted)
	ideal := cost(lama.Homogeneous(1, spec)) // 16 PUs: one whole dual-socket node
	fmt.Printf("\nring comm cost on the fragmented grant: %.3f ms\n", fragmented/1000)
	fmt.Printf("ring comm cost on one whole node:       %.3f ms (%.1fx cheaper)\n",
		ideal/1000, fragmented/ideal)

	// Freeze the fragmented plan to a rankfile so the exact placement can
	// be reproduced later without re-running the mapper.
	mapper, _ := lama.NewMapper(alloc.Granted, lama.MustParseLayout("csbnh"), lama.Options{})
	m, err := mapper.Map(16)
	if err != nil {
		log.Fatal(err)
	}
	rf, err := lama.RankfileFromMap(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfrozen rankfile (first lines):\n")
	text := lama.FormatRankfile(rf)
	for i, line := 0, 0; i < len(text) && line < 4; i++ {
		fmt.Print(string(text[i]))
		if text[i] == '\n' {
			line++
		}
	}
}
