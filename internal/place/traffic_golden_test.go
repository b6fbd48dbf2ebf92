package place_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/hw"
	"lama/internal/place"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestTrafficGolden pins the policies lamad serves to traffic-aware
// requests (treematch, torus, by-node, scatter, pack) over gtc, ring and
// stencil2d traffic at np 64, 128, ..., 512 on 256 nehalem-ep nodes: the
// sha256 of Render for every case, on the fresh cluster and on a snapshot
// derived by one FailPUs and one FailNode. Requests carry only what lamad
// sets for them (cluster, np, traffic), so PackLevel and TorusDims take
// their zero-value defaults.
func TestTrafficGolden(t *testing.T) {
	sp, _ := hw.Preset("nehalem-ep")
	fresh := cluster.SnapshotOf(cluster.Homogeneous(256, sp))
	failed, _ := fresh.FailPUs(3, hw.NewCPUSet(0, 1, 2, 9))
	failed, _ = failed.FailNode(100)
	var sb strings.Builder
	for _, s := range []struct {
		name string
		snap *cluster.Snapshot
	}{{"fresh", fresh}, {"failed", failed}} {
		for _, policy := range []string{"treematch", "torus", "by-node", "scatter", "pack"} {
			for _, pattern := range []string{"gtc", "ring", "stencil2d"} {
				gen, _ := commpat.ByName(pattern)
				for np := 64; np <= 512; np += 64 {
					req := &place.Request{Cluster: s.snap.Cluster(), NP: np, Traffic: gen(np, 1<<20)}
					m, err := place.Place(context.Background(), policy, req)
					if err != nil {
						t.Fatalf("%s %s %s np=%d: %v", s.name, policy, pattern, np, err)
					}
					fmt.Fprintf(&sb, "%s %s %s %d %x\n", s.name, policy, pattern, np, sha256.Sum256([]byte(m.Render())))
				}
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "traffic.golden")
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
