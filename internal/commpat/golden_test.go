package commpat

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestPatternGoldens pins every generator of the standard suite entry for
// entry: the sha256 of its FormatMatrix text at each size, 12345 bytes per
// exchange. FormatMatrix prints every pair in Each order with its exact
// volume, so a change in order, membership or summation moves a hash.
func TestPatternGoldens(t *testing.T) {
	var sb strings.Builder
	for _, p := range Patterns() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 48, 64, 100, 128, 512} {
			text := FormatMatrix(p.Gen(n, 12345))
			fmt.Fprintf(&sb, "%s %d %d %x\n", p.Name, n, strings.Count(text, "\n")-1, sha256.Sum256([]byte(text)))
		}
	}
	checkGolden(t, "patterns.golden", sb.String())
}

// TestParseMatrixDuplicatesGolden pins how a traffic file's repeated edges
// sum: in file order, so 1e16 followed by two 1s stays 1e16 while two 1s
// followed by 1e16 do not.
func TestParseMatrixDuplicatesGolden(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "dup_edges.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMatrix(string(text))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dup_edges.golden", FormatMatrix(m))
}

// TestBuildSumsDuplicatesInAddOrder pins Build's contract: a pair added
// several times holds its volumes summed in Add order, the running total
// an accumulate-as-you-go reference computes. Build sums each row's
// received volumes itself, so every row's in volumes are held to the same
// reference as Each's pairs.
func TestBuildSumsDuplicatesInAddOrder(t *testing.T) {
	const n = 20
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		ref := map[[2]int]float64{}
		for k := 0; k < 5000; k++ {
			i, j := r.Intn(n), r.Intn(n)
			v := (1 + r.Float64()) * float64(int64(1)<<r.Intn(40))
			b.Add(i, j, v)
			if i != j {
				ref[[2]int{i, j}] += v
			}
		}
		m := b.Build()
		nnz, last := 0, [2]int{-1, -1}
		m.Each(func(i, j int, bytes float64) {
			nnz++
			if k := [2]int{i, j}; k[0] < last[0] || (k[0] == last[0] && k[1] <= last[1]) {
				t.Fatalf("seed %d: pair %v after %v", seed, k, last)
			}
			last = [2]int{i, j}
			if want := ref[last]; bytes != want {
				t.Fatalf("seed %d: pair %v sums to %v, want %v", seed, last, bytes, want)
			}
		})
		if nnz != len(ref) {
			t.Fatalf("seed %d: %d pairs, want %d", seed, nnz, len(ref))
		}
		adj := map[[2]int]bool{}
		for k := range ref {
			adj[k], adj[[2]int{k[1], k[0]}] = true, true
		}
		entries := 0
		for r := 0; r < n; r++ {
			peers, out, in := m.Row(r)
			entries += len(peers)
			for k, p := range peers {
				if out[k] != ref[[2]int{r, int(p)}] || in[k] != ref[[2]int{int(p), r}] {
					t.Fatalf("seed %d: row %d peer %d: out %v in %v, want %v %v",
						seed, r, p, out[k], in[k], ref[[2]int{r, int(p)}], ref[[2]int{int(p), r}])
				}
			}
		}
		if entries != len(adj) {
			t.Fatalf("seed %d: rows hold %d entries, want %d", seed, entries, len(adj))
		}
	}
}
