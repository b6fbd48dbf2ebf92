package netsim

import (
	"fmt"

	"lama/internal/commpat"
	"lama/internal/core"
)

// Cost is the incremental evaluator of the sparse communication
// objective J(C,D,Π) — the same volume-weighted latency + bytes/bandwidth
// sum Model.Evaluate reports as TotalTime — held as mutable flat state so
// candidate placement changes are priced in O(degree) instead of O(nnz).
// NewCost computes the full J once over the sparse traffic; DeltaSwap and
// DeltaMove then price a swap or move by re-costing only the edges
// incident to the affected ranks, and ApplySwap/ApplyMove commit one.
//
// Every edge is priced by the shared Pricing (per-shape LCA tables
// intra-node, the flat Distances inter-node), so the steady-state methods
// never touch the topology tree or the Network interface: they are
// allocation-free (//lama:hotpath, enforced by lamavet, pinned by
// TestDeltaAllocationFree), and J equals Model.Evaluate's TotalTime.
type Cost struct {
	pr Pricing // held by value: one less pointer hop per priced edge
	tm *commpat.Matrix

	// Per-rank placement state: flat int32 mirrors of core.Map.
	node  []int32 // rank -> node index
	puOS  []int32 // rank -> representative PU OS index
	puIdx []int32 // rank -> dense PU ordinal in the node's LCA table (Pricing.Locate)

	// Merged incident adjacency: every rank's communication partners in
	// either direction, peers ascending, with outgoing (rank->peer) and
	// incoming (peer->rank) volumes kept separately so asymmetric
	// traffic is priced honestly.
	adjOff  []int32
	adjPeer []int32
	adjOut  []float64
	adjIn   []float64

	j float64
}

// NewCost builds the evaluator for one compiled pricing + traffic + map
// and computes the initial J. Every rank must be placed on a node of the
// pricing's cluster, on a PU that exists there.
func NewCost(pr *Pricing, tm *commpat.Matrix, m *core.Map) (*Cost, error) {
	if pr == nil || tm == nil || m == nil {
		return nil, fmt.Errorf("netsim: cost needs a pricing, traffic, and a map")
	}
	np := m.NumRanks()
	if tm.Ranks() != np {
		return nil, fmt.Errorf("netsim: traffic has %d ranks, map has %d", tm.Ranks(), np)
	}
	node, puIdx, err := pr.Locate(m)
	if err != nil {
		return nil, err
	}
	cs := &Cost{pr: *pr, tm: tm, node: node, puIdx: puIdx, puOS: make([]int32, np)}
	for r := range m.Placements {
		cs.puOS[r] = int32(m.Placements[r].PU())
	}

	cs.buildAdjacency(tm, np)

	tm.Each(func(i, j int, bytes float64) {
		cs.j += pr.Edge(cs.node[i], cs.puIdx[i], cs.node[j], cs.puIdx[j], bytes)
	})
	return cs, nil
}

// buildAdjacency merges each rank's outgoing and incoming traffic entries
// into one peer-sorted incident list.
func (cs *Cost) buildAdjacency(tm *commpat.Matrix, np int) {
	off := make([]int32, np+1)
	tm.Each(func(i, j int, bytes float64) {
		off[i+1]++
		off[j+1]++
	})
	for r := 0; r < np; r++ {
		off[r+1] += off[r]
	}
	total := off[np]
	peer := make([]int32, total)
	outv := make([]float64, total)
	inv := make([]float64, total)
	cur := make([]int32, np)
	copy(cur, off[:np])
	tm.Each(func(i, j int, bytes float64) {
		k := cur[i]
		cur[i]++
		peer[k], outv[k] = int32(j), bytes
		k = cur[j]
		cur[j]++
		peer[k], inv[k] = int32(i), bytes
	})

	cs.adjOff = make([]int32, np+1)
	w := int32(0)
	for r := 0; r < np; r++ {
		lo, hi := off[r], off[r+1]
		// Insertion sort the rank's slice by peer (ranges are small:
		// the rank's degree), keeping the three arrays in tandem.
		for k := lo + 1; k < hi; k++ {
			for x := k; x > lo && peer[x-1] > peer[x]; x-- {
				peer[x-1], peer[x] = peer[x], peer[x-1]
				outv[x-1], outv[x] = outv[x], outv[x-1]
				inv[x-1], inv[x] = inv[x], inv[x-1]
			}
		}
		// Merge duplicate peers (an out and an in entry), compacting
		// globally in place: w never passes the read cursor.
		cs.adjOff[r] = w
		for k := lo; k < hi; k++ {
			if w > cs.adjOff[r] && peer[w-1] == peer[k] {
				outv[w-1] += outv[k]
				inv[w-1] += inv[k]
				continue
			}
			peer[w], outv[w], inv[w] = peer[k], outv[k], inv[k]
			w++
		}
	}
	cs.adjOff[np] = w
	cs.adjPeer, cs.adjOut, cs.adjIn = peer[:w], outv[:w], inv[:w]
}

// J returns the current objective value.
func (cs *Cost) J() float64 { return cs.j }

// NodeOf returns rank r's current node index.
//
//lama:hotpath
func (cs *Cost) NodeOf(r int) int { return int(cs.node[r]) }

// PUOf returns rank r's current representative PU OS index.
func (cs *Cost) PUOf(r int) int { return int(cs.puOS[r]) }

// Degree returns the number of distinct communication partners of r.
func (cs *Cost) Degree(r int) int { return int(cs.adjOff[r+1] - cs.adjOff[r]) }

// Neighbors returns rank r's merged incident adjacency: peers ascending
// with the outgoing and incoming volume per peer. The slices alias the
// evaluator's state — read only.
//
//lama:hotpath
func (cs *Cost) Neighbors(r int) (peers []int32, out, in []float64) {
	lo, hi := cs.adjOff[r], cs.adjOff[r+1]
	return cs.adjPeer[lo:hi], cs.adjOut[lo:hi], cs.adjIn[lo:hi]
}

// DeltaSwap returns the change in J if ranks a and b exchanged their
// placements, without applying it, in O(degree(a)+degree(b)).
//
//lama:hotpath
func (cs *Cost) DeltaSwap(a, b int) float64 {
	if a == b {
		return 0
	}
	na, pa := cs.node[a], cs.puIdx[a]
	nb, pb := cs.node[b], cs.puIdx[b]
	if na == nb && pa == pb {
		return 0 // same processor (oversubscription): swapping changes nothing
	}
	delta := 0.0
	b32 := int32(b)
	for k := cs.adjOff[a]; k < cs.adjOff[a+1]; k++ {
		p := cs.adjPeer[k]
		if p == b32 {
			// The a<->b edges keep both endpoints, exchanged.
			if v := cs.adjOut[k]; v > 0 {
				delta += cs.pr.Edge(nb, pb, na, pa, v) - cs.pr.Edge(na, pa, nb, pb, v)
			}
			if v := cs.adjIn[k]; v > 0 {
				delta += cs.pr.Edge(na, pa, nb, pb, v) - cs.pr.Edge(nb, pb, na, pa, v)
			}
			continue
		}
		pn, pp := cs.node[p], cs.puIdx[p]
		if v := cs.adjOut[k]; v > 0 {
			delta += cs.pr.Edge(nb, pb, pn, pp, v) - cs.pr.Edge(na, pa, pn, pp, v)
		}
		if v := cs.adjIn[k]; v > 0 {
			delta += cs.pr.Edge(pn, pp, nb, pb, v) - cs.pr.Edge(pn, pp, na, pa, v)
		}
	}
	a32 := int32(a)
	for k := cs.adjOff[b]; k < cs.adjOff[b+1]; k++ {
		p := cs.adjPeer[k]
		if p == a32 {
			continue // priced from a's side
		}
		pn, pp := cs.node[p], cs.puIdx[p]
		if v := cs.adjOut[k]; v > 0 {
			delta += cs.pr.Edge(na, pa, pn, pp, v) - cs.pr.Edge(nb, pb, pn, pp, v)
		}
		if v := cs.adjIn[k]; v > 0 {
			delta += cs.pr.Edge(pn, pp, na, pa, v) - cs.pr.Edge(pn, pp, nb, pb, v)
		}
	}
	return delta
}

// DeltaMove returns the change in J if rank r moved to the given PU (an
// OS index) on the given node, and whether that PU exists there, in
// O(degree(r)).
//
//lama:hotpath
func (cs *Cost) DeltaMove(r, node, pu int) (float64, bool) {
	idx := cs.pr.ordinal(node, pu)
	if idx < 0 {
		return 0, false
	}
	nr, pr := cs.node[r], cs.puIdx[r]
	nn, pn := int32(node), idx
	if nr == nn && pr == pn {
		return 0, true
	}
	delta := 0.0
	for k := cs.adjOff[r]; k < cs.adjOff[r+1]; k++ {
		p := cs.adjPeer[k]
		po, pi := cs.node[p], cs.puIdx[p]
		if v := cs.adjOut[k]; v > 0 {
			delta += cs.pr.Edge(nn, pn, po, pi, v) - cs.pr.Edge(nr, pr, po, pi, v)
		}
		if v := cs.adjIn[k]; v > 0 {
			delta += cs.pr.Edge(po, pi, nn, pn, v) - cs.pr.Edge(po, pi, nr, pr, v)
		}
	}
	return delta, true
}

// ApplySwap commits the swap and returns its delta.
//
//lama:hotpath
func (cs *Cost) ApplySwap(a, b int) float64 {
	d := cs.DeltaSwap(a, b)
	cs.node[a], cs.node[b] = cs.node[b], cs.node[a]
	cs.puOS[a], cs.puOS[b] = cs.puOS[b], cs.puOS[a]
	cs.puIdx[a], cs.puIdx[b] = cs.puIdx[b], cs.puIdx[a]
	cs.j += d
	return d
}

// ApplyMove commits the move and returns its delta; a false second
// return means the PU does not exist on the node and nothing changed.
//
//lama:hotpath
func (cs *Cost) ApplyMove(r, node, pu int) (float64, bool) {
	d, ok := cs.DeltaMove(r, node, pu)
	if !ok {
		return 0, false
	}
	cs.node[r] = int32(node)
	cs.puOS[r] = int32(pu)
	cs.puIdx[r] = cs.pr.ordinal(node, pu)
	cs.j += d
	return d, true
}

// Recompute re-derives J from scratch in O(nnz) without modifying state
// — the drift guard the differential tests lean on.
func (cs *Cost) Recompute() float64 {
	j := 0.0
	cs.tm.Each(func(a, b int, bytes float64) {
		j += cs.pr.Edge(cs.node[a], cs.puIdx[a], cs.node[b], cs.puIdx[b], bytes)
	})
	return j
}
