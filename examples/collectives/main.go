// Collectives and launch at scale: how placement changes MPI collective
// times (rounds synchronize on their slowest exchange), and what the
// daemon spawn protocol costs as the machine count grows.
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

	// Launch-protocol comparison for the same machine counts.
	fmt.Println("\ndaemon spawn at scale (50 us/message):")
	for _, n := range []int{64, 1024} {
		lin, _ := lama.SimulateSpawn(n, lama.LinearSpawn, 50)
		bin, _ := lama.SimulateSpawn(n, lama.BinomialSpawn, 50)
		fmt.Printf("  %4d nodes: linear %.2f ms, binomial %.2f ms\n",
			n, lin.TimeUs/1000, bin.TimeUs/1000)
	}
}
