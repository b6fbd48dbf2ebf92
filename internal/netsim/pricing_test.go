package netsim

import (
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// spec256 is a 256-PU node: 4 sockets × 2 NUMA × 8 cores × 4 threads.
var spec256 = hw.Spec{Boards: 1, Sockets: 4, NUMAs: 2, L3s: 1, L2s: 8, L1s: 1, Cores: 1, PUs: 4, ThreadMajorOS: true}

// BenchmarkPricing times compiling a Model over a cluster: the network's
// Distances plus one hierarchy-table read per node.
func BenchmarkPricing(b *testing.B) {
	neh, _ := hw.Preset("nehalem-ep")
	mo := NewModel(NewDragonfly(8))
	for _, bc := range []struct {
		name string
		c    *cluster.Cluster
	}{
		{"snapshot-4096xnehalem-ep", cluster.HomogeneousSnapshot(4096, neh).Cluster()},
		{"homogeneous-4096xnehalem", cluster.Homogeneous(4096, neh)},
		{"homogeneous-16x256pu", cluster.Homogeneous(16, spec256)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mo.Pricing(bc.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPricingAllocsFlatInNodes pins Pricing's cost to O(nodes) pointer
// reads: compiling a model allocates the same count on 16 nodes as on
// 4096, homogeneous or heterogeneous, on flat, fat-tree and dragonfly.
func TestPricingAllocsFlatInNodes(t *testing.T) {
	neh, _ := hw.Preset("nehalem-ep")
	fig2, _ := hw.Preset("fig2")
	hetero := func(n int) *cluster.Cluster {
		specs := make([]hw.Spec, n)
		for i := range specs {
			specs[i] = []hw.Spec{neh, fig2, spec256}[i%3]
		}
		return cluster.FromSpecs(specs...)
	}
	for name, build := range map[string]func(int) *cluster.Cluster{
		"snapshot":    func(n int) *cluster.Cluster { return cluster.HomogeneousSnapshot(n, neh).Cluster() },
		"homogeneous": func(n int) *cluster.Cluster { return cluster.Homogeneous(n, neh) },
		"hetero":      hetero,
	} {
		small, big := build(16), build(4096)
		for _, net := range []Network{NewFlat(), NewFatTree(4), NewDragonfly(8)} {
			mo := NewModel(net)
			count := func(c *cluster.Cluster) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := mo.Pricing(c); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := count(small), count(big); a != b {
				t.Errorf("%s on %s: Pricing allocates %v on 16 nodes, %v on 4096", net.Name(), name, a, b)
			}
		}
	}
}
