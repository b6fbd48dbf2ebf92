package commpat

import (
	"math/rand"
)

// Ring produces a 1-D periodic nearest-neighbor exchange: each rank sends
// bytes to its two ring neighbors.
func Ring(n int, bytes float64) *Matrix {
	b := newPooledBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, bytes)
		b.Add(i, (i-1+n)%n, bytes)
	}
	return b.buildPooled()
}

// Grid2D chooses a near-square process grid px*py == n (px <= py).
func Grid2D(n int) (px, py int) {
	px = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			px = f
		}
	}
	return px, n / px
}

// Grid3D chooses a near-cubic process grid px*py*pz == n.
func Grid3D(n int) (px, py, pz int) {
	best := [3]int{1, 1, n}
	bestCost := n * n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rem := n / a
		for b := a; b*b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			c := rem / b
			cost := (c - a) // prefer balanced
			if cost < bestCost {
				bestCost = cost
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Stencil2D produces a 5-point 2-D stencil halo exchange over a px*py
// grid (row-major rank order). Periodic selects torus boundaries.
func Stencil2D(px, py int, bytes float64, periodic bool) *Matrix {
	b := newPooledBuilder(px * py)
	id := func(x, y int) int { return y*px + x }
	for y := 0; y < py; y++ {
		for x := 0; x < px; x++ {
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if periodic {
					nx, ny = (nx+px)%px, (ny+py)%py
				} else if nx < 0 || ny < 0 || nx >= px || ny >= py {
					continue
				}
				b.Add(id(x, y), id(nx, ny), bytes)
			}
		}
	}
	return b.buildPooled()
}

// Stencil3D produces a 7-point 3-D stencil halo exchange over a px*py*pz
// grid (x fastest).
func Stencil3D(px, py, pz int, bytes float64, periodic bool) *Matrix {
	b := newPooledBuilder(px * py * pz)
	id := func(x, y, z int) int { return (z*py+y)*px + x }
	dirs := [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				for _, d := range dirs {
					nx, ny, nz := x+d[0], y+d[1], z+d[2]
					if periodic {
						nx, ny, nz = (nx+px)%px, (ny+py)%py, (nz+pz)%pz
					} else if nx < 0 || ny < 0 || nz < 0 || nx >= px || ny >= py || nz >= pz {
						continue
					}
					b.Add(id(x, y, z), id(nx, ny, nz), bytes)
				}
			}
		}
	}
	return b.buildPooled()
}

// AllToAll produces uniform all-to-all traffic (every ordered pair
// exchanges bytes), the worst case for any placement.
func AllToAll(n int, bytes float64) *Matrix {
	b := newPooledBuilder(n)
	b.ent = make([]entry, 0, n*(n-1)) // exact: no growth copies at the densest pattern
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add(i, j, bytes)
		}
	}
	return b.buildPooled()
}

// RandomPairs produces traffic between `pairs` random distinct rank pairs.
func RandomPairs(n, pairs int, bytes float64, seed int64) *Matrix {
	b := newPooledBuilder(n)
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < pairs; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			j = (j + 1) % n
		}
		b.AddSym(i, j, bytes)
	}
	return b.buildPooled()
}

// GTC models the Gyrokinetic Toroidal Code's communication (paper §II,
// ref [2]): a 1-D domain decomposition along the torus with heavy
// particle-shift traffic to the two toroidal neighbors, plus a lighter
// grid-reduction component within poloidal groups of size g (every rank
// talks to the other members of its group at 1/8 the neighbor volume).
func GTC(n int, bytes float64) *Matrix {
	b := newPooledBuilder(n)
	// Toroidal shifts dominate.
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, bytes)
		b.Add(i, (i-1+n)%n, bytes)
	}
	// Poloidal reduction groups.
	g := 4
	for base := 0; base < n; base += g {
		for i := base; i < base+g && i < n; i++ {
			for j := base; j < base+g && j < n; j++ {
				b.Add(i, j, bytes/8)
			}
		}
	}
	return b.buildPooled()
}

// NASCG proxies the NAS CG benchmark: ranks form a 2-D grid; each rank
// exchanges with its row partner(s) during the matrix-vector product and
// with log-distance partners during the reductions.
func NASCG(n int, bytes float64) *Matrix {
	b := newPooledBuilder(n)
	px, _ := Grid2D(n)
	for i := 0; i < n; i++ {
		// Transpose-style partner in the row.
		row := i / px
		col := i % px
		partner := col*px + row // valid when grid is square; clamp otherwise
		if partner < n && partner != i {
			b.AddSym(i, partner, bytes)
		}
		// Log-distance reduction partners within the row.
		for d := 1; d < px; d *= 2 {
			j := row*px + (col^d)%px
			if j < n {
				b.AddSym(i, j, bytes/2)
			}
		}
	}
	return b.buildPooled()
}

// NASMG proxies the NAS MG benchmark: a 3-D stencil whose halo exchanges
// also occur at strides 2 and 4 along each axis (multigrid coarsening),
// with geometrically decreasing volume.
func NASMG(n int, bytes float64) *Matrix {
	px, py, pz := Grid3D(n)
	b := newPooledBuilder(n)
	id := func(x, y, z int) int { return (z*py+y)*px + x }
	for _, stride := range []int{1, 2, 4} {
		vol := bytes / float64(stride)
		for z := 0; z < pz; z++ {
			for y := 0; y < py; y++ {
				for x := 0; x < px; x++ {
					nbs := [][3]int{
						{(x + stride) % px, y, z}, {(x - stride + 8*px) % px, y, z},
						{x, (y + stride) % py, z}, {x, (y - stride + 8*py) % py, z},
						{x, y, (z + stride) % pz}, {x, y, (z - stride + 8*pz) % pz},
					}
					for _, nb := range nbs {
						b.Add(id(x, y, z), id(nb[0], nb[1], nb[2]), vol)
					}
				}
			}
		}
	}
	return b.buildPooled()
}

// NASFT proxies the NAS FT benchmark: the distributed FFT's transpose is
// an all-to-all between the ranks of each transpose group (here: global).
func NASFT(n int, bytes float64) *Matrix {
	return AllToAll(n, bytes)
}

// NASLU proxies the NAS LU benchmark: a 2-D wavefront pipeline; each rank
// sends to its +x and +y neighbors (directional, non-periodic).
func NASLU(n int, bytes float64) *Matrix {
	px, py := Grid2D(n)
	b := newPooledBuilder(n)
	id := func(x, y int) int { return y*px + x }
	for y := 0; y < py; y++ {
		for x := 0; x < px; x++ {
			if x+1 < px {
				b.Add(id(x, y), id(x+1, y), bytes)
			}
			if y+1 < py {
				b.Add(id(x, y), id(x, y+1), bytes)
			}
		}
	}
	return b.buildPooled()
}

// Pattern is a named traffic generator with a fixed per-exchange volume,
// for sweep harnesses.
type Pattern struct {
	Name string
	Gen  func(n int, bytes float64) *Matrix
}

// ByName resolves one generator from the standard pattern suite.
func ByName(name string) (func(n int, bytes float64) *Matrix, bool) {
	for _, p := range Patterns() {
		if p.Name == name {
			return p.Gen, true
		}
	}
	return nil, false
}

// Patterns returns the standard pattern suite used by the experiments.
func Patterns() []Pattern {
	return []Pattern{
		{"ring", Ring},
		{"stencil2d", func(n int, b float64) *Matrix {
			px, py := Grid2D(n)
			return Stencil2D(px, py, b, true)
		}},
		{"stencil3d", func(n int, b float64) *Matrix {
			px, py, pz := Grid3D(n)
			return Stencil3D(px, py, pz, b, true)
		}},
		{"alltoall", AllToAll},
		{"gtc", GTC},
		{"nas-cg", NASCG},
		{"nas-mg", NASMG},
		{"nas-ft", NASFT},
		{"nas-lu", NASLU},
	}
}
