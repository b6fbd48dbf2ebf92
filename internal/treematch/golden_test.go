package treematch

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

type goldenCluster struct {
	name string
	c    *cluster.Cluster
}

// goldenClusters are the sweep's allocations: two homogeneous sizes, a
// three-cores-per-socket node shape, and one with partial and whole-node
// failures.
func goldenClusters() []goldenCluster {
	sp, _ := hw.Preset("nehalem-ep")
	fig2, _ := hw.Preset("fig2")
	failed := cluster.Homogeneous(8, sp)
	failed.Node(1).Topo.Offline(hw.NewCPUSet(0, 1, 2))
	failed.Node(4).Topo.Offline(hw.CPUSetRange(8, 15))
	failed.Node(6).Topo.Offline(hw.CPUSetRange(0, 15))
	return []goldenCluster{
		{"nehalem-ep-x8", cluster.Homogeneous(8, sp)},
		{"nehalem-ep-x32", cluster.Homogeneous(32, sp)},
		{"fig2-x6", cluster.Homogeneous(6, fig2)},
		{"nehalem-ep-x8-failed", failed},
	}
}

type goldenTraffic struct {
	name string
	gen  func(np int) (*commpat.Matrix, error)
}

// goldenTraffics is every standard pattern, symmetric random pairs, and
// asymmetric random traffic whose edges repeat with unequal volumes.
func goldenTraffics() []goldenTraffic {
	var out []goldenTraffic
	for _, p := range commpat.Patterns() {
		gen := p.Gen
		out = append(out, goldenTraffic{p.Name, func(np int) (*commpat.Matrix, error) { return gen(np, 1<<20), nil }})
	}
	out = append(out,
		goldenTraffic{"random-pairs", func(np int) (*commpat.Matrix, error) {
			return commpat.RandomPairs(np, 3*np, 1000, int64(np)), nil
		}},
		goldenTraffic{"asym-dup", func(np int) (*commpat.Matrix, error) {
			r := rand.New(rand.NewSource(int64(np)))
			var sb strings.Builder
			fmt.Fprintf(&sb, "ranks %d\n", np)
			for k := 0; k < 4*np && np > 1; k++ {
				i, j := r.Intn(np), r.Intn(np)
				if i == j {
					continue
				}
				fmt.Fprintf(&sb, "%d %d %g\n", i, j, float64(1+r.Intn(64))*0.1)
				if k%3 == 0 {
					fmt.Fprintf(&sb, "%d %d %g\n", i, j, float64(1+r.Intn(4))*0.7)
				}
			}
			return commpat.ParseMatrix(sb.String())
		}},
	)
	return out
}

// goldenNPs is the sweep's process counts up to a cluster's capacity,
// capacity itself included.
func goldenNPs(capacity int) []int {
	var out []int
	for _, np := range []int{1, 2, 3, 5, 8, 13, 16, 17, 24, 31, 48, 64, 100, 128, 200, 256, 384, 511, 512} {
		if np < capacity {
			out = append(out, np)
		}
	}
	return append(out, capacity)
}

// TestMapGolden pins Map's placements over the sweep: the sha256 of
// Render for every cluster, traffic and process count.
func TestMapGolden(t *testing.T) {
	var sb strings.Builder
	for _, gc := range goldenClusters() {
		for _, gt := range goldenTraffics() {
			for _, np := range goldenNPs(gc.c.TotalUsablePUs()) {
				tm, err := gt.gen(np)
				if err != nil {
					t.Fatalf("%s np=%d: %v", gt.name, np, err)
				}
				m, err := Map(gc.c, tm, np)
				if err != nil {
					t.Fatalf("%s %s np=%d: %v", gc.name, gt.name, np, err)
				}
				fmt.Fprintf(&sb, "%s %s %d %x\n", gc.name, gt.name, np, sha256.Sum256([]byte(m.Render())))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "map.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s differs: %d lines, want %d", path, len(gl), len(wl))
	}
}

var benchSink *core.Map

// BenchmarkTreeMatch maps three regular patterns onto 256 nehalem-ep
// nodes (4096 PUs) at growing process counts; traffic generation is
// outside the timer.
func BenchmarkTreeMatch(b *testing.B) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(256, sp)
	for _, np := range []int{64, 512, 4096} {
		for _, name := range []string{"gtc", "ring", "stencil2d"} {
			gen, _ := commpat.ByName(name)
			b.Run(fmt.Sprintf("np=%d/%s", np, name), func(b *testing.B) {
				tm := gen(np, 1<<20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if benchSink, err = Map(c, tm, np); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
