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
	"sync"
)

// Matrix is a rank-to-rank traffic matrix: Bytes(i,j) is the number of
// bytes rank i sends to rank j over one iteration of the application. It
// is stored in compressed-sparse-row form — the nonzero entries of every
// row contiguous, rows ascending, columns ascending within a row — so its
// size is O(n + communicating pairs), never n² (Schulz & Träff's
// sparse-QAP observation, PAPERS.md). Build one with a Builder.
//
// A Matrix is immutable once built, so goroutines may share one; its
// Incident view is computed on first use, once. The package's patterns
// build theirs in pooled storage, which a sole owner may hand back with
// Release.
type Matrix struct {
	n      int
	rowOff []int32 // len n+1; row i occupies col/val[rowOff[i]:rowOff[i+1]]
	col    []int32
	val    []float64

	// arrays is the pooled storage the matrix and its view were built in,
	// nil for a Builder.Build matrix.
	arrays *arrays

	incOnce sync.Once
	inc     *Incident // set by incOnce; see Incident
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

// Incident returns m's merged incident view. It is built in O(n + nnz) on
// the first call and shared by every later one, from any goroutine.
func (m *Matrix) Incident() *Incident {
	m.incOnce.Do(func() { m.inc = m.buildIncident() })
	return m.inc
}

// buildIncident builds the incident view: row r of m is merged with
// column r, read off a transpose whose rows come out ascending because m
// is walked row by row, so nothing is sorted. A volume present in one
// direction only is 0 in the other. The transpose runs in pooled
// scratch. A pooled matrix's view is merged straight into its arrays;
// any other's is merged in the scratch and copied out at its exact size.
func (m *Matrix) buildIncident() *Incident {
	n, nnz := m.n, len(m.col)
	s := incidentPool.Get().(*incidentScratch)
	defer s.release()
	// Transpose: tOff/tRow/tVal row j lists the ranks sending to j. tOff
	// counts into j+1, is summed, then serves as row j's write cursor,
	// which leaves it shifted one row up until it is moved back.
	tOff := grow(&s.tOff, n+1)
	clear(tOff)
	for _, j := range m.col {
		tOff[j+1]++
	}
	for j := 0; j < n; j++ {
		tOff[j+1] += tOff[j]
	}
	tRow, tVal := grow(&s.tRow, nnz), grow(&s.tVal, nnz)
	for i := 0; i < n; i++ {
		for k := m.rowOff[i]; k < m.rowOff[i+1]; k++ {
			j := m.col[k]
			tRow[tOff[j]], tVal[tOff[j]] = int32(i), m.val[k]
			tOff[j]++
		}
	}
	copy(tOff[1:], tOff[:n])
	tOff[0] = 0

	// A rank has at most its row's and its column's entries as peers.
	var off, peer []int32
	var out, in []float64
	if a := m.arrays; a != nil {
		off, peer, out, in = grow(&a.off, n+1), grow(&a.peer, 2*nnz), grow(&a.out, 2*nnz), grow(&a.in, 2*nnz)
		off[0] = 0
	} else {
		off, peer, out, in = make([]int32, n+1), grow(&s.peer, 2*nnz), grow(&s.out, 2*nnz), grow(&s.in, 2*nnz)
	}
	k := 0
	for r := 0; r < n; r++ {
		cols, vals := m.Row(r)
		a, b, hi := 0, tOff[r], tOff[r+1]
		for ; a < len(cols) || b < hi; k++ {
			switch {
			case b == hi || (a < len(cols) && cols[a] < tRow[b]):
				peer[k], out[k], in[k] = cols[a], vals[a], 0
				a++
			case a == len(cols) || tRow[b] < cols[a]:
				peer[k], out[k], in[k] = tRow[b], 0, tVal[b]
				b++
			default:
				peer[k], out[k], in[k] = cols[a], vals[a], tVal[b]
				a++
				b++
			}
		}
		off[r+1] = int32(k)
	}

	if m.arrays != nil {
		return &Incident{off: off, peer: peer[:k:k], out: out[:k:k], in: in[:k:k]}
	}
	vols := make([]float64, 2*k)
	copy(vols, out[:k])
	copy(vols[k:], in[:k])
	return &Incident{off: off, peer: slices.Clone(peer[:k]), out: vols[:k:k], in: vols[k:]}
}

// incidentScratch is the working memory of one buildIncident: the
// transpose, and for a matrix built outside the pool the merged rows
// before they are copied out.
type incidentScratch struct {
	tOff, tRow, peer []int32
	tVal, out, in    []float64
}

// incidentPool holds idle incident scratches; see pooledCap.
var incidentPool = sync.Pool{New: func() any { return new(incidentScratch) }}

// release returns s to the pool unless it grew past pooledCap entries;
// peer is the largest buffer but for tOff, which grows with the ranks.
func (s *incidentScratch) release() {
	if cap(s.peer) <= pooledCap && cap(s.tOff) <= pooledCap {
		incidentPool.Put(s)
	}
}

// pooledCap bounds the entries a pooled buffer keeps between calls: a
// matrix past it builds in fresh memory that is dropped afterwards, so
// one huge job does not pin its scratch in the pool.
const pooledCap = 1 << 16

// grow returns (*buf)[:n], reallocating *buf when it is too short. The
// contents are whatever the buffer held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// arrays is the storage of a pooled matrix and of its incident view,
// kept at the capacity it grew to.
type arrays struct {
	rowOff, col, off, peer []int32
	val, out, in           []float64
}

// arraysPool holds the storage of released matrices; see pooledCap.
var arraysPool = sync.Pool{New: func() any { return new(arrays) }}

// Release ends m's life: its slices and its incident view's become nil,
// so a late read panics instead of reading storage another matrix now
// uses, and the arrays a pattern built m in go back to the pool (a
// Builder.Build matrix is only cleared). The caller must own m solely,
// and nothing may read m, its rows or its view afterwards.
func (m *Matrix) Release() {
	a := m.arrays
	m.rowOff, m.col, m.val, m.arrays = nil, nil, nil, nil
	if x := m.inc; x != nil {
		x.off, x.peer, x.out, x.in = nil, nil, nil, nil
	}
	if a != nil && cap(a.rowOff) <= pooledCap && cap(a.col) <= pooledCap && cap(a.peer) <= pooledCap {
		arraysPool.Put(a)
	}
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
	return &Builder{n: ranks(n)}
}

// ranks returns n, panicking unless it is a valid rank count.
func ranks(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("commpat: non-positive rank count %d", n))
	}
	return n
}

// Add accumulates traffic from i to j. Self pairs, out-of-range indices,
// and non-positive volumes are ignored.
func (b *Builder) Add(i, j int, bytes float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n || i == j || bytes <= 0 {
		return
	}
	b.ent = append(b.ent, entry{int32(i), int32(j), bytes})
}

// builderPool holds the entry buffers of the package's own patterns,
// which are garbage once their matrix is built; see pooledCap.
var builderPool = sync.Pool{New: func() any { return new(Builder) }}

// newPooledBuilder is NewBuilder with an entry buffer from the pool. The
// builder must be finished with buildPooled.
func newPooledBuilder(n int) *Builder {
	n = ranks(n)
	b := builderPool.Get().(*Builder)
	b.n = n
	return b
}

// buildPooled builds b's matrix in pooled arrays and returns b's entry
// buffer to the pool: b must not be used again.
func (b *Builder) buildPooled() *Matrix {
	m := b.build(arraysPool.Get().(*arrays))
	if cap(b.ent) <= pooledCap {
		b.ent = b.ent[:0]
		builderPool.Put(b)
	}
	return m
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
func (b *Builder) Build() *Matrix { return b.build(nil) }

// build is Build into a's arrays, or into arrays of their exact size when
// a is nil.
func (b *Builder) build(a *arrays) *Matrix {
	m := &Matrix{n: b.n, arrays: a}
	if a != nil {
		m.rowOff, m.col, m.val = grow(&a.rowOff, b.n+1), grow(&a.col, len(b.ent)), grow(&a.val, len(b.ent))
		clear(m.rowOff)
	} else {
		m.rowOff, m.col, m.val = make([]int32, b.n+1), make([]int32, len(b.ent)), make([]float64, len(b.ent))
	}
	for _, e := range b.ent {
		m.rowOff[e.row+1]++
	}
	for i := 0; i < b.n; i++ {
		m.rowOff[i+1] += m.rowOff[i]
	}
	// rowOff[row] is the row's write cursor, which leaves every offset
	// one row up until it is moved back.
	for _, e := range b.ent {
		k := m.rowOff[e.row]
		m.rowOff[e.row]++
		m.col[k], m.val[k] = e.col, e.val
	}
	copy(m.rowOff[1:], m.rowOff[:b.n])
	m.rowOff[0] = 0
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
