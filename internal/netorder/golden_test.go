package netorder

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenCase is one AllPairs refinement input: a cluster, the LAMA layout
// that places the job on it, the network pricing it, the traffic, and the
// sweep budget.
type goldenCase struct {
	name      string
	c         *cluster.Cluster
	layout    string
	net       netsim.Network
	tm        *commpat.Matrix
	maxSweeps int
}

// goldenCases is E19's two patterns, E20's three one-sweep ring sizes, and
// 240 seeded sparse cases over flat, fat-tree and dragonfly networks, half
// symmetric random pairs and half asymmetric traffic whose parsed entries
// repeat with unequal volumes.
func goldenCases(t *testing.T) []goldenCase {
	nehalem, _ := hw.Preset("nehalem-ep")
	fig2, _ := hw.Preset("fig2")
	flat := netsim.NewFlat()
	out := []goldenCase{
		{"E19/ring", cluster.Homogeneous(8, nehalem), "csbnh", flat, commpat.Ring(64, 1<<20), 0},
		{"E19/cliques", cluster.Homogeneous(8, nehalem), "csbnh", flat, shuffledCliques(64, 8, 1<<20, 20), 0},
	}
	for _, sz := range []struct{ nodes, np int }{{4, 64}, {8, 128}, {16, 256}} {
		out = append(out, goldenCase{fmt.Sprintf("E20/np=%d", sz.np), cluster.Homogeneous(sz.nodes, nehalem),
			"scbnh", flat, commpat.Ring(sz.np, 1<<20), 1})
	}
	nets := []netsim.Network{flat, netsim.NewFatTree(2), netsim.NewDragonfly(2)}
	layouts := []string{"csbnh", "ncsbh", "scbnh", "bnsch", "hcsbn"}
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := nehalem
		if r.Intn(2) == 1 {
			sp = fig2
		}
		c := cluster.Homogeneous(2+r.Intn(7), sp)
		np := 2 + r.Intn(min(c.TotalUsablePUs(), 64)-1)
		var tm *commpat.Matrix
		if seed%2 == 0 {
			tm = commpat.RandomPairs(np, 1+r.Intn(3*np), float64(1+r.Intn(1<<20)), seed)
		} else {
			var sb strings.Builder
			fmt.Fprintf(&sb, "ranks %d\n", np)
			for k := 0; k < 2*np; k++ {
				i, j := r.Intn(np), r.Intn(np)
				if i == j {
					continue
				}
				fmt.Fprintf(&sb, "%d %d %g\n", i, j, float64(1+r.Intn(1<<16))*0.1)
				if k%3 == 0 {
					fmt.Fprintf(&sb, "%d %d %g\n", i, j, float64(1+r.Intn(4))*0.7)
				}
			}
			var err error
			if tm, err = commpat.ParseMatrix(sb.String()); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, goldenCase{fmt.Sprintf("seed=%d", seed), c,
			layouts[r.Intn(len(layouts))], nets[seed%3], tm, r.Intn(3)})
	}
	return out
}

// shuffledCliques is E19's irregular pattern: all-to-all cliques of g
// consecutive ranks, relabeled by a seeded permutation so that no LAMA
// layout lines the cliques up with nodes.
func shuffledCliques(n, g int, bytes float64, seed int64) *commpat.Matrix {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		state = state*2862933555777941757 + 3037000493
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	b := commpat.NewBuilder(n)
	for base := 0; base < n; base += g {
		for i := base; i < base+g && i < n; i++ {
			for j := base; j < base+g && j < n; j++ {
				if i != j {
					b.Add(perm[i], perm[j], bytes)
				}
			}
		}
	}
	return b.Build()
}

// tieFlips are the golden cases whose search first diverges from the
// golden's at a swap of zero gain. testdata/optimize.golden was generated
// by the all-pairs search as it ran before it priced swaps with netsim.Cost:
// it re-summed both ranks' incident costs before and after each candidate,
// and there the rounding of those sums (about -2e-12 at J ≈ 5000) put
// after below before and the swap was applied, while Cost.DeltaSwap prices
// the same swap at 0 or within 2.3e-13 of it and keeps the ranks. Every
// case is RandomPairs traffic, one volume on every pair, on a fat-tree or
// dragonfly that makes swaps cost-neutral. Their lines still pin Before,
// and After may not be worse.
var tieFlips = map[string]bool{"seed=34": true, "seed=94": true, "seed=116": true, "seed=226": true, "seed=232": true}

// goldenMap places gc's job with its LAMA layout.
func goldenMap(t *testing.T, gc goldenCase) *core.Map {
	t.Helper()
	mapper, err := core.NewMapper(gc.c, core.MustParseLayout(gc.layout), core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	m, err := mapper.Map(gc.tm.Ranks())
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return m
}

// oldRanks derives the permutation a refinement applied: application rank
// r of out runs on the processor that rank perm[r] of in held, found by
// (node, first PU). It fails if two ranks of in share a PU, where the
// processor would not name one rank.
func oldRanks(t *testing.T, in, out *core.Map) []int {
	t.Helper()
	at := make(map[[2]int]int, in.NumRanks())
	for r := range in.Placements {
		k := [2]int{in.Placements[r].Node, in.Placements[r].PU()}
		if o, dup := at[k]; dup {
			t.Fatalf("ranks %d and %d share node/PU %v", o, r, k)
		}
		at[k] = r
	}
	perm := make([]int, out.NumRanks())
	for r := range out.Placements {
		o, ok := at[[2]int{out.Placements[r].Node, out.Placements[r].PU()}]
		if !ok {
			t.Fatalf("rank %d runs on node/PU %d/%d, which no input rank held",
				r, out.Placements[r].Node, out.Placements[r].PU())
		}
		perm[r] = o
	}
	return perm
}

// TestOptimizeGolden pins the AllPairs search over goldenCases: Swaps and
// a hash of the permutation exactly, J before and after to 1e-9 relative,
// so a change to how swaps are priced cannot move the search unnoticed.
func TestOptimizeGolden(t *testing.T) {
	var sb strings.Builder
	for _, gc := range goldenCases(t) {
		m := goldenMap(t, gc)
		out, res, err := RefineMap(context.Background(), gc.c, netsim.NewModel(gc.net), gc.tm, m, AllPairs, gc.maxSweeps)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&sb, "%s %d %x %.17g %.17g\n", gc.name, res.Swaps,
			sha256.Sum256([]byte(fmt.Sprint(oldRanks(t, m, out)))), res.JBefore, res.JAfter)
	}
	got := sb.String()
	path := filepath.Join("testdata", "optimize.golden")
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
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range gl {
		g, w := strings.Fields(gl[i]), strings.Fields(wl[i])
		if len(g) != 5 || len(w) != 5 || g[0] != w[0] {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
			continue
		}
		var got, want [2]float64 // Before, After
		for f := range got {
			got[f], _ = strconv.ParseFloat(g[3+f], 64)
			want[f], _ = strconv.ParseFloat(w[3+f], 64)
		}
		same := g[1] == w[1] && g[2] == w[2]
		switch {
		case tieFlips[g[0]] && same:
			t.Errorf("%s line %d: %s no longer flips a tie; drop it from tieFlips", path, i+1, g[0])
		case tieFlips[g[0]]:
			if got[1] > want[1]*(1+1e-9) {
				t.Errorf("%s line %d: After %v is worse than %v", path, i+1, got[1], want[1])
			}
			got[1] = want[1]
		case !same:
			t.Errorf("%s line %d: swaps/perm differ:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
		for f := range got {
			if math.Abs(got[f]-want[f]) > 1e-9*math.Abs(want[f]) {
				t.Errorf("%s line %d: cost %v differs from %v beyond 1e-9 relative", path, i+1, got[f], want[f])
			}
		}
	}
}
