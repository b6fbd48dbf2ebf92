// Collectives: how placement changes MPI collective times (rounds
// synchronize on their slowest exchange).
package main

import (
	"fmt"
	"log"

	"lama"
)

func main() {
	spec, _ := lama.Preset("nehalem-ep")
	cluster := lama.Homogeneous(8, spec)
	model := lama.NewModel(lama.NewFlatNetwork())
	np := 16 // fits one node when packed

	fmt.Println("collective completion (1 MiB, np=16 on 8 nodes):")
	fmt.Printf("%-16s %12s %12s\n", "collective", "packed (ms)", "cyclic (ms)")
	for _, op := range []lama.CollOp{lama.Broadcast, lama.AllreduceRD, lama.AllreduceRing, lama.AlltoallOp} {
		times := make([]float64, 2)
		for i, layout := range []string{"csbnh", "ncsbh"} {
			mapper, err := lama.NewMapper(cluster, lama.MustParseLayout(layout), lama.Options{})
			if err != nil {
				log.Fatal(err)
			}
			m, err := mapper.Map(np)
			if err != nil {
				log.Fatal(err)
			}
			res, err := lama.RunCollective(op, cluster, m, model, 1<<20)
			if err != nil {
				log.Fatal(err)
			}
			times[i] = res.TimeUs / 1000
		}
		fmt.Printf("%-16s %12.3f %12.3f\n", op, times[0], times[1])
	}
}
