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
// is stored once, as the traffic around each rank in compressed-sparse-row
// form: row r lists every rank r exchanges traffic with, in either
// direction, peers ascending, with the bytes r sends to the peer (out) and
// receives from it (in) kept apart so asymmetric traffic stays visible. A
// volume present in one direction only is 0 in the other. Its size is
// O(n + communicating pairs), never n² (Schulz & Träff's sparse-QAP
// observation, PAPERS.md). Build one with a Builder.
//
// A Matrix is immutable once built, so goroutines may share one. The
// package's patterns build theirs in pooled storage, which a sole owner
// may hand back with Release.
type Matrix struct {
	n    int
	nnz  int     // entries with outgoing bytes: the communicating ordered pairs
	off  []int32 // len n+1; row r occupies peer/out/in[off[r]:off[r+1]]
	peer []int32
	out  []float64
	in   []float64

	// arrays is the pooled storage the matrix was built in, nil for a
	// Builder.Build matrix.
	arrays *arrays
}

// Ranks returns the number of ranks.
func (m *Matrix) Ranks() int { return m.n }

// NNZ returns the number of communicating ordered pairs.
func (m *Matrix) NNZ() int { return m.nnz }

// Row returns rank r's peers ascending with the bytes r sends to each
// (out) and receives from each (in), as parallel slices. It is the view
// the traffic-aware mappers and netsim's incremental pricer read. Callers
// must not modify the slices.
//
//lama:hotpath
func (m *Matrix) Row(r int) (peers []int32, out, in []float64) {
	lo, hi := m.off[r], m.off[r+1]
	return m.peer[lo:hi], m.out[lo:hi], m.in[lo:hi]
}

// Bytes returns the traffic from rank i to rank j (0 when absent or out
// of range), by binary search within row i.
//
//lama:api test oracle: the commpat tests hold Row, the parser and the fuzzer to it
func (m *Matrix) Bytes(i, j int) float64 {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		return 0
	}
	peers, out, _ := m.Row(i)
	if k, ok := slices.BinarySearch(peers, int32(j)); ok {
		return out[k]
	}
	return 0
}

// Total returns the total bytes in the matrix, summed in Each's order.
//
//lama:api test oracle: the commpat tests check built and parsed totals against it
func (m *Matrix) Total() float64 {
	t := 0.0
	for _, v := range m.out {
		t += v
	}
	return t
}

// Each calls f for every communicating ordered pair: rows ascending,
// columns ascending within a row. It walks the rows and skips the
// entries with no outgoing bytes, the peers a row only receives from.
func (m *Matrix) Each(f func(i, j int, bytes float64)) {
	for i := 0; i < m.n; i++ {
		for k := m.off[i]; k < m.off[i+1]; k++ {
			if m.out[k] != 0 {
				f(i, int(m.peer[k]), m.out[k])
			}
		}
	}
}

// pooledCap bounds the entries a pooled buffer keeps between calls: a
// matrix past it builds in fresh memory that is dropped afterwards, so
// one huge job does not pin its storage in the pool.
const pooledCap = 1 << 16

// grow returns (*buf)[:n], reallocating *buf when it is too short. The
// contents are whatever the buffer held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// arrays is the storage of a matrix, kept at the capacity it grew to.
type arrays struct {
	off, peer []int32
	out, in   []float64
}

// arraysPool holds the storage of released matrices; see pooledCap.
var arraysPool = sync.Pool{New: func() any { return new(arrays) }}

// release returns a to the pool unless it grew past pooledCap entries.
func (a *arrays) release() {
	if cap(a.off) <= pooledCap && cap(a.peer) <= pooledCap {
		arraysPool.Put(a)
	}
}

// Release ends m's life: its slices become nil, so a late read panics
// instead of reading storage another matrix now uses, and the arrays a
// pattern built m in go back to the pool (a Builder.Build matrix is only
// cleared). The caller must own m solely, and nothing may read m or its
// rows afterwards.
func (m *Matrix) Release() {
	a := m.arrays
	m.off, m.peer, m.out, m.in, m.arrays = nil, nil, nil, nil, nil
	if a != nil {
		a.release()
	}
}

// Builder accumulates traffic entries for a Matrix. Entries are kept as
// added and ordered once, by Build.
type Builder struct {
	n   int
	ent []entry

	// build's scratch: a row's out-run, set aside while it is merged.
	runPeer []int32
	runVal  []float64
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

// builderPool holds the entry and scratch buffers of the package's own
// patterns, which are garbage once their matrix is built; see pooledCap.
var builderPool = sync.Pool{New: func() any { return new(Builder) }}

// newPooledBuilder is NewBuilder with buffers from the pool. The builder
// must be finished with buildPooled.
func newPooledBuilder(n int) *Builder {
	n = ranks(n)
	b := builderPool.Get().(*Builder)
	b.n = n
	return b
}

// buildPooled builds b's matrix in pooled arrays and returns b's buffers
// to the pool: b must not be used again.
func (b *Builder) buildPooled() *Matrix {
	a := arraysPool.Get().(*arrays)
	m := b.build(a)
	m.arrays = a
	if cap(b.ent) <= pooledCap && cap(b.runPeer) <= pooledCap {
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
// The matrix is built in pooled arrays and copied out at its exact size.
func (b *Builder) Build() *Matrix {
	a := arraysPool.Get().(*arrays)
	m := b.build(a)
	k := len(m.peer)
	vols := make([]float64, 2*k)
	copy(vols, m.out)
	copy(vols[k:], m.in)
	m.off, m.peer, m.out, m.in = slices.Clone(m.off), slices.Clone(m.peer), vols[:k:k], vols[k:]
	a.release()
	return m
}

// build writes b's entries into a's arrays as the matrix's rows. Each
// entry is bucketed under both endpoints: row i holds entry (i, j) as an
// out-half (peer j, out bytes), row j as an in-half (peer i, in bytes). A
// row's out-run comes first, then its in-run, each in Add order. Each row
// then sorts its two runs stably by peer, which costs one pass for a run
// that came in peer order, as a row-major pattern's do, and merges them,
// summing each peer's volumes per direction in Add order: the running
// totals an accumulate-as-you-go matrix would hold.
func (b *Builder) build(a *arrays) *Matrix {
	n, ents := b.n, b.ent
	off := grow(&a.off, n+1)
	clear(off)
	for _, e := range ents {
		off[e.row+1]++
		off[e.col+1]++
	}
	for r := 1; r <= n; r++ {
		off[r] += off[r-1]
	}
	// off[r] is row r's write cursor, out-halves first; it ends at the
	// next row's start, which leaves every offset one row up until it is
	// moved back. An out-half's in is 0 and an in-half's is not, since
	// Add keeps only positive volumes: that marks where a row's in-run
	// starts.
	peer, out, in := grow(&a.peer, 2*len(ents)), grow(&a.out, 2*len(ents)), grow(&a.in, 2*len(ents))
	for _, e := range ents {
		k := off[e.row]
		off[e.row]++
		peer[k], out[k], in[k] = e.col, e.val, 0
	}
	for _, e := range ents {
		k := off[e.col]
		off[e.col]++
		peer[k], in[k] = e.row, e.val
	}
	copy(off[1:], off[:n])
	off[0] = 0
	// Merge each row's runs, compacting in place: the merged row starts
	// at w, which never passes the row's old start lo, and its out-run is
	// set aside first, so no write lands on an unread half.
	w, nnz := int32(0), 0
	for r := 0; r < n; r++ {
		lo, hi := off[r], off[r+1]
		mid := lo
		for mid < hi && in[mid] == 0 {
			mid++
		}
		sortRun(peer[lo:mid], out[lo:mid])
		sortRun(peer[mid:hi], in[mid:hi])
		outPeer := append(b.runPeer[:0], peer[lo:mid]...)
		outVal := append(b.runVal[:0], out[lo:mid]...)
		b.runPeer, b.runVal = outPeer, outVal
		off[r] = w
		x, y := 0, mid
		for x < len(outPeer) || y < hi {
			p := int32(n)
			if x < len(outPeer) {
				p = outPeer[x]
			}
			if y < hi {
				p = min(p, peer[y])
			}
			o, i := 0.0, 0.0
			for ; x < len(outPeer) && outPeer[x] == p; x++ {
				o += outVal[x]
			}
			for ; y < hi && peer[y] == p; y++ {
				i += in[y]
			}
			if o != 0 {
				nnz++
			}
			peer[w], out[w], in[w] = p, o, i
			w++
		}
	}
	off[n] = w
	return &Matrix{n: n, nnz: nnz, off: off, peer: peer[:w:w], out: out[:w:w], in: in[:w:w]}
}

// sortRun orders one run of a row by peer, stably, so repeated peers keep
// their Add order. Short runs (stencils, rings) are insertion-sorted in
// place without allocating.
func sortRun(peers []int32, vals []float64) {
	if slices.IsSorted(peers) {
		return
	}
	if len(peers) > 16 {
		sort.Stable(runByPeer{peers, vals})
		return
	}
	for k := 1; k < len(peers); k++ {
		for x := k; x > 0 && peers[x-1] > peers[x]; x-- {
			peers[x-1], peers[x] = peers[x], peers[x-1]
			vals[x-1], vals[x] = vals[x], vals[x-1]
		}
	}
}

type runByPeer struct {
	peers []int32
	vals  []float64
}

func (r runByPeer) Len() int           { return len(r.peers) }
func (r runByPeer) Less(x, y int) bool { return r.peers[x] < r.peers[y] }
func (r runByPeer) Swap(x, y int) {
	r.peers[x], r.peers[y] = r.peers[y], r.peers[x]
	r.vals[x], r.vals[y] = r.vals[y], r.vals[x]
}
