// Package commpat generates synthetic rank-to-rank communication traffic
// matrices for the application classes the paper's motivation cites (§I,
// §II): nearest-neighbor stencils, the GTC gyrokinetic code's toroidal
// exchange, and NAS parallel benchmark proxies. These matrices drive the
// netsim cost model so that mapping experiments can measure how placement
// changes communication cost without real applications.
package commpat

import (
	"fmt"
	"slices"
	"sort"
)

// Matrix is a rank-to-rank traffic matrix: Bytes(i,j) is the number of
// bytes rank i sends to rank j over one iteration of the application. It
// is stored in compressed-sparse-row form — the nonzero entries of every
// row contiguous, rows ascending, columns ascending within a row — so its
// size is O(n + communicating pairs), never n² (Schulz & Träff's
// sparse-QAP observation, PAPERS.md). Build one with a Builder.
type Matrix struct {
	n      int
	rowOff []int32 // len n+1; row i occupies col/val[rowOff[i]:rowOff[i+1]]
	col    []int32
	val    []float64
}

// Ranks returns the number of ranks.
func (m *Matrix) Ranks() int { return m.n }

// NNZ returns the number of communicating ordered pairs.
func (m *Matrix) NNZ() int { return len(m.col) }

// Row returns rank i's outgoing entries as parallel column/value slices,
// columns ascending. Callers must not modify them.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.rowOff[i], m.rowOff[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// Bytes returns the traffic from rank i to rank j (0 when absent or out
// of range), by binary search within row i.
func (m *Matrix) Bytes(i, j int) float64 {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		return 0
	}
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(x int) bool { return cols[x] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Total returns the total bytes in the matrix.
func (m *Matrix) Total() float64 {
	t := 0.0
	for _, v := range m.val {
		t += v
	}
	return t
}

// Each calls f for every communicating ordered pair: rows ascending,
// columns ascending within a row.
func (m *Matrix) Each(f func(i, j int, bytes float64)) {
	for i := 0; i < m.n; i++ {
		for k := m.rowOff[i]; k < m.rowOff[i+1]; k++ {
			f(i, int(m.col[k]), m.val[k])
		}
	}
}

// Incident is the traffic around each rank: row r lists every rank r
// exchanges traffic with, in either direction, peers ascending, with the
// bytes r sends to the peer (out) and receives from it (in) kept apart so
// asymmetric traffic stays visible. It is the one merged view the
// traffic-aware mappers and netsim's incremental pricer read.
type Incident struct {
	off  []int32 // len n+1; row r occupies peer/out/in[off[r]:off[r+1]]
	peer []int32
	out  []float64
	in   []float64
}

// Incident returns m's merged incident view, built in O(n + nnz) on each
// call: row r of m is merged with column r, read off a transpose whose
// rows come out ascending because m is walked row by row, so nothing is
// sorted. A volume present in one direction only is 0 in the other.
func (m *Matrix) Incident() *Incident {
	n, nnz := m.n, len(m.col)
	// Transpose: tOff/tRow/tVal row j lists the ranks sending to j.
	tOff := make([]int32, n+1)
	for _, j := range m.col {
		tOff[j+1]++
	}
	for j := 0; j < n; j++ {
		tOff[j+1] += tOff[j]
	}
	tRow := make([]int32, nnz)
	tVal := make([]float64, nnz)
	next := append([]int32(nil), tOff[:n]...)
	m.Each(func(i, j int, bytes float64) {
		k := next[j]
		next[j]++
		tRow[k], tVal[k] = int32(i), bytes
	})

	x := &Incident{
		off:  make([]int32, n+1),
		peer: make([]int32, 0, 2*nnz),
		out:  make([]float64, 0, 2*nnz),
		in:   make([]float64, 0, 2*nnz),
	}
	for r := 0; r < n; r++ {
		cols, vals := m.Row(r)
		a, b, hi := 0, tOff[r], tOff[r+1]
		for a < len(cols) || b < hi {
			switch {
			case b == hi || (a < len(cols) && cols[a] < tRow[b]):
				x.add(cols[a], vals[a], 0)
				a++
			case a == len(cols) || tRow[b] < cols[a]:
				x.add(tRow[b], 0, tVal[b])
				b++
			default:
				x.add(cols[a], vals[a], tVal[b])
				a++
				b++
			}
		}
		x.off[r+1] = int32(len(x.peer))
	}
	return x
}

func (x *Incident) add(peer int32, out, in float64) {
	x.peer = append(x.peer, peer)
	x.out = append(x.out, out)
	x.in = append(x.in, in)
}

// Row returns rank r's peers ascending with the bytes r sends to each
// (out) and receives from each (in), as parallel slices. Callers must not
// modify them.
//
//lama:hotpath
func (x *Incident) Row(r int) (peers []int32, out, in []float64) {
	lo, hi := x.off[r], x.off[r+1]
	return x.peer[lo:hi], x.out[lo:hi], x.in[lo:hi]
}

// Builder accumulates traffic entries for a Matrix. Entries are kept as
// added and ordered once, by Build.
type Builder struct {
	n   int
	ent []entry
}

type entry struct {
	row, col int32
	val      float64
}

// NewBuilder creates a builder for an n-rank job.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("commpat: non-positive rank count %d", n))
	}
	return &Builder{n: n}
}

// Add accumulates traffic from i to j. Self pairs, out-of-range indices,
// and non-positive volumes are ignored.
func (b *Builder) Add(i, j int, bytes float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n || i == j || bytes <= 0 {
		return
	}
	b.ent = append(b.ent, entry{int32(i), int32(j), bytes})
}

// AddSym accumulates traffic in both directions.
func (b *Builder) AddSym(i, j int, bytes float64) {
	b.Add(i, j, bytes)
	b.Add(j, i, bytes)
}

// Build returns the Matrix of every entry added so far. A pair added more
// than once holds its volumes summed in Add order — the running total an
// accumulate-as-you-go matrix would hold — so the result depends only on
// the sequence of Add calls. The builder stays usable: further Adds
// followed by another Build see all entries.
//
// Entries are bucketed by row, which keeps their Add order, and each row
// is then sorted stably by column: O(nnz) when rows arrive in column
// order, as they do for row-major patterns.
func (b *Builder) Build() *Matrix {
	m := &Matrix{
		n:      b.n,
		rowOff: make([]int32, b.n+1),
		col:    make([]int32, len(b.ent)),
		val:    make([]float64, len(b.ent)),
	}
	for _, e := range b.ent {
		m.rowOff[e.row+1]++
	}
	for i := 0; i < b.n; i++ {
		m.rowOff[i+1] += m.rowOff[i]
	}
	next := append([]int32(nil), m.rowOff[:b.n]...)
	for _, e := range b.ent {
		k := next[e.row]
		next[e.row]++
		m.col[k], m.val[k] = e.col, e.val
	}
	// Sort each row, then merge repeated columns, compacting in place: the
	// write cursor w never passes the read cursor k.
	w := int32(0)
	for i := 0; i < b.n; i++ {
		lo, hi := m.rowOff[i], m.rowOff[i+1]
		sortRow(m.col[lo:hi], m.val[lo:hi])
		m.rowOff[i] = w
		for k := lo; k < hi; k++ {
			if w > m.rowOff[i] && m.col[w-1] == m.col[k] {
				m.val[w-1] += m.val[k]
				continue
			}
			m.col[w], m.val[w] = m.col[k], m.val[k]
			w++
		}
	}
	m.rowOff[b.n] = w
	m.col, m.val = m.col[:w], m.val[:w]
	return m
}

// sortRow orders one row's entries by column, stably, so repeated columns
// keep their Add order. Short rows (stencils, rings) are insertion-sorted
// in place without allocating.
func sortRow(cols []int32, vals []float64) {
	if slices.IsSorted(cols) {
		return
	}
	if len(cols) > 16 {
		sort.Stable(rowByCol{cols, vals})
		return
	}
	for k := 1; k < len(cols); k++ {
		for x := k; x > 0 && cols[x-1] > cols[x]; x-- {
			cols[x-1], cols[x] = cols[x], cols[x-1]
			vals[x-1], vals[x] = vals[x], vals[x-1]
		}
	}
}

type rowByCol struct {
	cols []int32
	vals []float64
}

func (r rowByCol) Len() int           { return len(r.cols) }
func (r rowByCol) Less(x, y int) bool { return r.cols[x] < r.cols[y] }
func (r rowByCol) Swap(x, y int) {
	r.cols[x], r.cols[y] = r.cols[y], r.cols[x]
	r.vals[x], r.vals[y] = r.vals[y], r.vals[x]
}
