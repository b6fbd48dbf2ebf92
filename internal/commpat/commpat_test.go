package commpat

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	b := NewBuilder(4)
	if m := b.Build(); m.Ranks() != 4 || m.Total() != 0 || m.NNZ() != 0 {
		t.Fatal("empty matrix")
	}
	b.Add(0, 1, 100)
	b.Add(0, 1, 50)
	b.AddSym(2, 3, 10)
	// Self and out-of-range traffic ignored.
	b.Add(1, 1, 99)
	b.Add(-1, 0, 99)
	b.Add(0, 9, 99)
	b.Add(0, 2, -5)
	m := b.Build()
	if m.Bytes(0, 1) != 150 || m.Bytes(1, 0) != 0 {
		t.Fatal("Add wrong")
	}
	if m.Bytes(2, 3) != 10 || m.Bytes(3, 2) != 10 {
		t.Fatal("AddSym wrong")
	}
	if m.Total() != 170 || m.NNZ() != 3 {
		t.Fatalf("Total=%v NNZ=%v", m.Total(), m.NNZ())
	}
	if m.Bytes(0, 0) != 0 || m.Bytes(-1, 2) != 0 || m.Bytes(0, 9) != 0 {
		t.Fatal("Bytes bounds")
	}
	sum := 0.0
	m.Each(func(i, j int, b float64) { sum += b })
	if sum != 170 {
		t.Fatal("Each wrong")
	}
	peers, out, in := m.Row(2)
	if len(peers) != 1 || peers[0] != 3 || out[0] != 10 || in[0] != 10 {
		t.Fatalf("Row(2) = %v %v %v", peers, out, in)
	}
}

// TestBuilderMatchesMatrix feeds one Add/AddSym sequence, including
// dropped calls (self pairs, out-of-range, non-positive volumes), a
// repeated pair and an out-of-order row, and requires exactly the
// surviving entries, row-major.
func TestBuilderMatchesMatrix(t *testing.T) {
	n := 10
	b := NewBuilder(n)
	b.Add(0, 1, 5)
	b.Add(0, 1, 7)    // duplicate: merges
	b.Add(1, 0, 2)    // reverse direction is distinct
	b.Add(3, 3, 9)    // self: dropped
	b.Add(-1, 2, 4)   // out of range: dropped
	b.Add(2, n, 4)    // out of range: dropped
	b.Add(4, 5, 0)    // non-positive: dropped
	b.Add(4, 5, -3)   // non-positive: dropped
	b.AddSym(8, 9, 6) // both directions
	b.Add(9, 2, 1)    // row 9 again, lower column: Build must sort
	var got []string
	b.Build().Each(func(i, j int, bytes float64) { got = append(got, fmt.Sprintf("%d>%d:%g", i, j, bytes)) })
	if want := "0>1:12 1>0:2 8>9:6 9>2:1 9>8:6"; strings.Join(got, " ") != want {
		t.Fatalf("entries %v, want %s", got, want)
	}
}

func TestBuilderReusable(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1, 1)
	s1 := b.Build()
	b.Add(1, 2, 1)
	s2 := b.Build()
	if s1.NNZ() != 1 || s2.NNZ() != 2 {
		t.Fatalf("nnz %d then %d, want 1 then 2", s1.NNZ(), s2.NNZ())
	}
}

func TestNewBuilderPanicsOnBadRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewBuilder(0)
}

// TestSparseAccessors checks Bytes, Row and Total against a ring, whose
// every row holds two entries.
func TestSparseAccessors(t *testing.T) {
	m := Ring(8, 100)
	if m.Total() != 1600 {
		t.Fatalf("total %g", m.Total())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if j == (i+1)%8 || j == (i+7)%8 {
				want = 100
			}
			if m.Bytes(i, j) != want {
				t.Fatalf("bytes(%d,%d) = %g, want %g", i, j, m.Bytes(i, j), want)
			}
		}
	}
	if m.Bytes(-1, 0) != 0 || m.Bytes(0, 99) != 0 {
		t.Fatal("out-of-range bytes should be 0")
	}
	peers, out, in := m.Row(0)
	if len(peers) != 2 || len(out) != 2 || len(in) != 2 || peers[0] != 1 || peers[1] != 7 {
		t.Fatalf("row 0 = %v, want [1 7]", peers)
	}
}

// sameTraffic asserts m holds exactly the traffic of the dense n×n
// reference: Bytes agrees on every pair, zeros included; Each and the
// rows' out volumes yield the nonzero entries once each, rows ascending
// and columns ascending within a row; and row i lists, peers strictly
// ascending, exactly the ranks i sends to or receives from, each with
// both directions' bytes.
func sameTraffic(t *testing.T, name string, dense [][]float64, m *Matrix) {
	t.Helper()
	n := len(dense)
	if m.Ranks() != n {
		t.Fatalf("%s: ranks %d, want %d", name, m.Ranks(), n)
	}
	type ent struct {
		i, j int
		b    float64
	}
	var want, got, rows []ent
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.Bytes(i, j) != dense[i][j] {
				t.Fatalf("%s: bytes(%d,%d) = %g, want %g", name, i, j, m.Bytes(i, j), dense[i][j])
			}
			if dense[i][j] != 0 {
				want = append(want, ent{i, j, dense[i][j]})
				total += dense[i][j]
			}
		}
		peers, out, in := m.Row(i)
		var partners []int32
		for j := 0; j < n; j++ {
			if dense[i][j] != 0 || dense[j][i] != 0 {
				partners = append(partners, int32(j))
			}
		}
		if fmt.Sprint(peers) != fmt.Sprint(partners) || len(out) != len(peers) || len(in) != len(peers) {
			t.Fatalf("%s: row %d peers %v (%d out, %d in), want %v", name, i, peers, len(out), len(in), partners)
		}
		for k, p := range peers {
			if out[k] != dense[i][p] || in[k] != dense[p][i] {
				t.Fatalf("%s: row %d peer %d: out %g in %g, want %g %g", name, i, p, out[k], in[k], dense[i][p], dense[p][i])
			}
			if out[k] != 0 {
				rows = append(rows, ent{i, int(p), out[k]})
			}
		}
	}
	m.Each(func(i, j int, b float64) { got = append(got, ent{i, j, b}) })
	if m.NNZ() != len(want) || len(got) != len(want) || len(rows) != len(want) {
		t.Fatalf("%s: nnz %d, Each %d, Row %d entries; want %d", name, m.NNZ(), len(got), len(rows), len(want))
	}
	for k := range want {
		if got[k] != want[k] || rows[k] != want[k] {
			t.Fatalf("%s: entry %d: Each %+v, Row %+v, want %+v", name, k, got[k], rows[k], want[k])
		}
	}
	if m.Total() != total {
		t.Fatalf("%s: total %g, want %g", name, m.Total(), total)
	}
}

// TestSparseMatchesMatrix checks every pattern's CSR storage against the
// dense matrix its entries describe: each pair appears once, in row-major
// order, and Bytes finds it (or 0) by its binary search.
func TestSparseMatchesMatrix(t *testing.T) {
	for _, p := range Patterns() {
		for _, n := range []int{1, 2, 7, 16, 36} {
			m := p.Gen(n, 1000)
			dense := make([][]float64, n)
			for i := range dense {
				dense[i] = make([]float64, n)
			}
			m.Each(func(i, j int, b float64) { dense[i][j] += b })
			sameTraffic(t, fmt.Sprintf("%s/%d", p.Name, n), dense, m)
		}
	}
}

// denseAdder accumulates traffic into an n×n array in call order, with
// Builder.Add's drop rules: the reference the generators are held to.
type denseAdder [][]float64

func newDenseAdder(n int) denseAdder {
	d := make(denseAdder, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return d
}

func (d denseAdder) add(i, j int, bytes float64) {
	if i < 0 || j < 0 || i >= len(d) || j >= len(d) || i == j || bytes <= 0 {
		return
	}
	d[i][j] += bytes
}

// TestSparsePatternsMatchDense holds the generators that must scale to
// 100k+ ranks (ring, the periodic stencils, gtc) to an independent dense
// accumulate-in-call-order reference, entry for entry.
func TestSparsePatternsMatchDense(t *testing.T) {
	refs := map[string]func(d denseAdder, n int, bytes float64){
		"ring": func(d denseAdder, n int, bytes float64) {
			for i := 0; i < n; i++ {
				d.add(i, (i+1)%n, bytes)
				d.add(i, (i-1+n)%n, bytes)
			}
		},
		"stencil2d": func(d denseAdder, n int, bytes float64) {
			px, py := Grid2D(n)
			for y := 0; y < py; y++ {
				for x := 0; x < px; x++ {
					me := y*px + x
					d.add(me, y*px+(x+1)%px, bytes)
					d.add(me, y*px+(x-1+px)%px, bytes)
					d.add(me, ((y+1)%py)*px+x, bytes)
					d.add(me, ((y-1+py)%py)*px+x, bytes)
				}
			}
		},
		"stencil3d": func(d denseAdder, n int, bytes float64) {
			px, py, pz := Grid3D(n)
			id := func(x, y, z int) int { return (z*py+y)*px + x }
			for z := 0; z < pz; z++ {
				for y := 0; y < py; y++ {
					for x := 0; x < px; x++ {
						me := id(x, y, z)
						d.add(me, id((x+1)%px, y, z), bytes)
						d.add(me, id((x-1+px)%px, y, z), bytes)
						d.add(me, id(x, (y+1)%py, z), bytes)
						d.add(me, id(x, (y-1+py)%py, z), bytes)
						d.add(me, id(x, y, (z+1)%pz), bytes)
						d.add(me, id(x, y, (z-1+pz)%pz), bytes)
					}
				}
			}
		},
		"gtc": func(d denseAdder, n int, bytes float64) {
			for i := 0; i < n; i++ {
				d.add(i, (i+1)%n, bytes)
				d.add(i, (i-1+n)%n, bytes)
			}
			for base := 0; base < n; base += 4 {
				for i := base; i < base+4 && i < n; i++ {
					for j := base; j < base+4 && j < n; j++ {
						d.add(i, j, bytes/8)
					}
				}
			}
		},
	}
	for name, ref := range refs {
		gen, ok := ByName(name)
		if !ok {
			t.Fatalf("pattern %q missing from the suite", name)
		}
		for _, n := range []int{2, 5, 16, 27, 64} {
			d := newDenseAdder(n)
			ref(d, n, 777)
			sameTraffic(t, fmt.Sprintf("%s/%d", name, n), d, gen(n, 777))
		}
	}
}

func TestGrids(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 12: {3, 4}, 7: {1, 7}, 64: {8, 8}}
	for n, want := range cases {
		px, py := Grid2D(n)
		if px*py != n || px != want[0] || py != want[1] {
			t.Errorf("Grid2D(%d) = %dx%d", n, px, py)
		}
	}
	px, py, pz := Grid3D(64)
	if px*py*pz != 64 || px != 4 || py != 4 || pz != 4 {
		t.Errorf("Grid3D(64) = %dx%dx%d", px, py, pz)
	}
	px, py, pz = Grid3D(24)
	if px*py*pz != 24 {
		t.Errorf("Grid3D(24) = %dx%dx%d", px, py, pz)
	}
}

func TestRing(t *testing.T) {
	m := Ring(5, 10)
	for i := 0; i < 5; i++ {
		if m.Bytes(i, (i+1)%5) != 10 || m.Bytes(i, (i+4)%5) != 10 {
			t.Fatalf("ring traffic wrong at %d", i)
		}
	}
	if m.NNZ() != 10 {
		t.Fatalf("pairs = %d", m.NNZ())
	}
}

func TestStencil2D(t *testing.T) {
	// Non-periodic 3x3: corner has 2 neighbors, center has 4.
	m := Stencil2D(3, 3, 1, false)
	counts := func(r int) int {
		n := 0
		m.Each(func(i, j int, b float64) {
			if i == r {
				n++
			}
		})
		return n
	}
	if counts(0) != 2 || counts(4) != 4 || counts(8) != 2 {
		t.Fatalf("stencil degree: corner=%d center=%d", counts(0), counts(4))
	}
	// Periodic: everyone has 4 neighbors.
	p := Stencil2D(3, 3, 1, true)
	for r := 0; r < 9; r++ {
		n := 0
		p.Each(func(i, j int, b float64) {
			if i == r {
				n++
			}
		})
		if n != 4 {
			t.Fatalf("periodic degree of %d = %d", r, n)
		}
	}
}

func TestStencil3DSymmetric(t *testing.T) {
	m := Stencil3D(2, 3, 2, 5, true)
	m.Each(func(i, j int, b float64) {
		if m.Bytes(j, i) != b {
			t.Fatalf("asymmetric stencil: %d->%d", i, j)
		}
	})
	if m.Total() == 0 {
		t.Fatal("empty stencil")
	}
}

func TestAllToAll(t *testing.T) {
	m := AllToAll(4, 2)
	if m.NNZ() != 12 || m.Total() != 24 {
		t.Fatalf("a2a pairs=%d total=%v", m.NNZ(), m.Total())
	}
}

var benchSink *Matrix

// BenchmarkAllToAll1024 times the densest standard pattern: 1024 ranks,
// 1,047,552 pairs.
func BenchmarkAllToAll1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = AllToAll(1024, 1)
	}
}

func TestGTCStructure(t *testing.T) {
	m := GTC(16, 800)
	// Toroidal neighbors dominate.
	if m.Bytes(0, 1) <= m.Bytes(0, 2) {
		t.Fatal("neighbor traffic should dominate group traffic")
	}
	if m.Bytes(0, 15) < 800 {
		t.Fatal("ring wraparound missing")
	}
	// Group members communicate.
	if m.Bytes(0, 2) == 0 || m.Bytes(4, 6) == 0 {
		t.Fatal("poloidal group traffic missing")
	}
	// No traffic across groups except ring.
	if m.Bytes(0, 5) != 0 {
		t.Fatal("unexpected cross-group traffic")
	}
}

func TestNASPatternsNonEmptyAndSane(t *testing.T) {
	for _, p := range Patterns() {
		for _, n := range []int{8, 16, 64} {
			m := p.Gen(n, 100)
			if m.Ranks() != n {
				t.Fatalf("%s(%d): ranks = %d", p.Name, n, m.Ranks())
			}
			if m.Total() <= 0 {
				t.Fatalf("%s(%d): empty matrix", p.Name, n)
			}
			// No self traffic by construction.
			for i := 0; i < n; i++ {
				if m.Bytes(i, i) != 0 {
					t.Fatalf("%s: self traffic at %d", p.Name, i)
				}
			}
		}
	}
}

func TestNASLUDirectional(t *testing.T) {
	m := NASLU(16, 10) // 4x4
	if m.Bytes(0, 1) != 10 || m.Bytes(1, 0) != 0 {
		t.Fatal("LU should be directional (+x)")
	}
	if m.Bytes(0, 4) != 10 || m.Bytes(4, 0) != 0 {
		t.Fatal("LU should be directional (+y)")
	}
	// Last rank sends nothing.
	sent := 0.0
	m.Each(func(i, j int, b float64) {
		if i == 15 {
			sent += b
		}
	})
	if sent != 0 {
		t.Fatal("sink rank should not send")
	}
}

func TestRandomPairsDeterministic(t *testing.T) {
	a := RandomPairs(10, 20, 5, 7)
	b := RandomPairs(10, 20, 5, 7)
	a.Each(func(i, j int, bytes float64) {
		if b.Bytes(i, j) != bytes {
			t.Fatal("same seed, different matrix")
		}
	})
	if a.Total() == 0 {
		t.Fatal("empty random matrix")
	}
}

func TestQuickStencilDegreeBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		px, py := 1+r.Intn(5), 1+r.Intn(5)
		m := Stencil2D(px, py, 1, true)
		// Periodic 5-point stencil: out-degree of every rank is at most 4
		// and the matrix is symmetric.
		deg := make([]int, px*py)
		ok := true
		m.Each(func(i, j int, b float64) {
			deg[i]++
			if m.Bytes(j, i) == 0 {
				ok = false
			}
		})
		for _, d := range deg {
			if d > 4 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIncidentMatchesSymmetricRebuild holds the rows to the symmetric
// construction treematch once partitioned on, every entry added both ways
// into a second Builder: the same peers per row, out+in bit-identical to
// the symmetric weight, and each direction equal to Bytes. The inputs cover peers sent to only, received
// from only, and both, ranks with no partners, and parsed traffic whose
// entries repeat.
func TestIncidentMatchesSymmetricRebuild(t *testing.T) {
	dup, err := os.ReadFile(filepath.Join("testdata", "dup_edges.txt"))
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{string(dup), "ranks 7\n0 1 5\n2 1 3\n1 2 0.25\n6 0 1e9\n6 0 7\n"}
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 9, 40} {
		var sb strings.Builder
		fmt.Fprintf(&sb, "ranks %d\n", n)
		for k := 0; k < 2*n; k++ {
			if i, j := r.Intn(n), r.Intn(n); i != j {
				fmt.Fprintf(&sb, "%d %d %g\n", i, j, float64(1+r.Intn(1<<20))*0.1)
			}
		}
		texts = append(texts, sb.String())
	}
	var ms []*Matrix
	for _, text := range texts {
		m, err := ParseMatrix(text)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, p := range Patterns() {
		ms = append(ms, p.Gen(1, 1<<20), p.Gen(27, 1<<20), p.Gen(64, 3))
	}
	var outOnly, inOnly, both, lonely int
	for mi, m := range ms {
		b := NewBuilder(m.Ranks())
		m.Each(b.AddSym)
		sym := b.Build()
		for rank := 0; rank < m.Ranks(); rank++ {
			cols, ws, _ := sym.Row(rank)
			peers, out, in := m.Row(rank)
			if len(peers) != len(out) || len(peers) != len(in) || fmt.Sprint(peers) != fmt.Sprint(cols) {
				t.Fatalf("matrix %d rank %d: peers %v (%d out, %d in), want %v", mi, rank, peers, len(out), len(in), cols)
			}
			if len(peers) == 0 {
				lonely++
			}
			for k, o := range peers {
				if math.Float64bits(out[k]+in[k]) != math.Float64bits(ws[k]) {
					t.Fatalf("matrix %d rank %d peer %d: out+in = %v, want %v", mi, rank, o, out[k]+in[k], ws[k])
				}
				if out[k] != m.Bytes(rank, int(o)) || in[k] != m.Bytes(int(o), rank) {
					t.Fatalf("matrix %d rank %d peer %d: out %v in %v, want %v %v",
						mi, rank, o, out[k], in[k], m.Bytes(rank, int(o)), m.Bytes(int(o), rank))
				}
				switch {
				case in[k] == 0:
					outOnly++
				case out[k] == 0:
					inOnly++
				default:
					both++
				}
			}
		}
	}
	if outOnly == 0 || inOnly == 0 || both == 0 || lonely == 0 {
		t.Fatalf("coverage: %d out-only, %d in-only, %d both, %d lonely rows", outOnly, inOnly, both, lonely)
	}
}

// TestPooledScratchNotShared: the patterns build in pooled entry and
// scratch buffers, so a matrix must keep its contents while every other
// pattern is built after it, at a smaller and a larger size.
func TestPooledScratchNotShared(t *testing.T) {
	render := func(m *Matrix) string {
		var sb strings.Builder
		sb.WriteString(FormatMatrix(m))
		for r := 0; r < m.Ranks(); r++ {
			peers, out, in := m.Row(r)
			fmt.Fprintln(&sb, peers, out, in)
		}
		return sb.String()
	}
	for _, p := range Patterns() {
		m := p.Gen(48, 1<<20)
		want := render(m)
		for _, q := range Patterns() {
			for _, n := range []int{16, 96} {
				q.Gen(n, 7)
			}
		}
		if render(m) != want {
			t.Fatalf("%s: matrix changed when later matrices were built", p.Name)
		}
	}
}

// TestReleasedStorageReused: every pattern built on storage released by
// larger and smaller matrices renders exactly as the same traffic built
// by Builder.Build, entries and rows alike, so no stale entry or offset
// of a reused array survives into a new matrix.
func TestReleasedStorageReused(t *testing.T) {
	render := func(m *Matrix) string {
		var sb strings.Builder
		sb.WriteString(FormatMatrix(m))
		for r := 0; r < m.Ranks(); r++ {
			peers, out, in := m.Row(r)
			fmt.Fprintln(&sb, peers, out, in)
		}
		return sb.String()
	}
	for _, n := range []int{96, 16, 48, 7, 96, 33} {
		for _, p := range Patterns() {
			m := p.Gen(n, 1<<20)
			b := NewBuilder(n)
			m.Each(b.Add)
			if got, want := render(m), render(b.Build()); got != want {
				t.Fatalf("%s n=%d: a matrix on released storage differs from Builder.Build", p.Name, n)
			}
			m.Release()
		}
	}
}

// TestReleasedMatrixPanics: a released matrix's rows are nil, so a late
// read panics rather than reading storage a later matrix now uses.
func TestReleasedMatrixPanics(t *testing.T) {
	for name, read := range map[string]func(m *Matrix){
		"Row":   func(m *Matrix) { m.Row(0) },
		"Bytes": func(m *Matrix) { m.Bytes(0, 1) },
		"Each":  func(m *Matrix) { m.Each(func(int, int, float64) {}) },
	} {
		m := Ring(8, 1)
		m.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released matrix did not panic", name)
				}
			}()
			read(m)
		}()
	}
}
