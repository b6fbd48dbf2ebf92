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
// NewCost computes the full J once over the sparse traffic; DeltaSwap
// then prices a swap by re-costing only the edges incident to the two
// ranks, and ApplySwap commits one.
//
// Every edge is priced by the shared Pricing (each node's hierarchy
// table intra-node, the flat Distances inter-node), so the steady-state methods
// never touch the topology tree or the Network interface: they are
// allocation-free (//lama:hotpath, enforced by lamavet, pinned by
// TestDeltaAllocationFree), and J equals Model.Evaluate's TotalTime.
type Cost struct {
	pr Pricing         // held by value: one less pointer hop per priced edge
	tm *commpat.Matrix // its rows are the edges a delta re-costs

	// Per-rank placement state: flat int32 mirrors of core.Map.
	node  []int32 // rank -> node index
	puIdx []int32 // rank -> PU ordinal on its node (Pricing.Locate)

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
	cs := &Cost{pr: *pr, tm: tm, node: node, puIdx: puIdx}
	tm.Each(func(i, j int, bytes float64) {
		cs.j += pr.Edge(cs.node[i], cs.puIdx[i], cs.node[j], cs.puIdx[j], bytes)
	})
	return cs, nil
}

// J returns the current objective value.
func (cs *Cost) J() float64 { return cs.j }

// NodeOf returns rank r's current node index.
//
//lama:hotpath
func (cs *Cost) NodeOf(r int) int { return int(cs.node[r]) }

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
	peers, out, in := cs.tm.Row(a)
	for k, p := range peers {
		if p == b32 {
			// The a<->b edges keep both endpoints, exchanged.
			if v := out[k]; v > 0 {
				delta += cs.pr.Edge(nb, pb, na, pa, v) - cs.pr.Edge(na, pa, nb, pb, v)
			}
			if v := in[k]; v > 0 {
				delta += cs.pr.Edge(na, pa, nb, pb, v) - cs.pr.Edge(nb, pb, na, pa, v)
			}
			continue
		}
		pn, pp := cs.node[p], cs.puIdx[p]
		if v := out[k]; v > 0 {
			delta += cs.pr.Edge(nb, pb, pn, pp, v) - cs.pr.Edge(na, pa, pn, pp, v)
		}
		if v := in[k]; v > 0 {
			delta += cs.pr.Edge(pn, pp, nb, pb, v) - cs.pr.Edge(pn, pp, na, pa, v)
		}
	}
	a32 := int32(a)
	peers, out, in = cs.tm.Row(b)
	for k, p := range peers {
		if p == a32 {
			continue // priced from a's side
		}
		pn, pp := cs.node[p], cs.puIdx[p]
		if v := out[k]; v > 0 {
			delta += cs.pr.Edge(na, pa, pn, pp, v) - cs.pr.Edge(nb, pb, pn, pp, v)
		}
		if v := in[k]; v > 0 {
			delta += cs.pr.Edge(pn, pp, na, pa, v) - cs.pr.Edge(pn, pp, nb, pb, v)
		}
	}
	return delta
}

// ApplySwap commits the swap and returns its delta.
//
//lama:hotpath
func (cs *Cost) ApplySwap(a, b int) float64 {
	d := cs.DeltaSwap(a, b)
	cs.node[a], cs.node[b] = cs.node[b], cs.node[a]
	cs.puIdx[a], cs.puIdx[b] = cs.puIdx[b], cs.puIdx[a]
	cs.j += d
	return d
}

// Recompute re-derives J from scratch in O(nnz) without modifying state
// — the drift guard the differential tests lean on.
//
//lama:api test oracle: the delta-J differential tests check drift against it
func (cs *Cost) Recompute() float64 {
	j := 0.0
	cs.tm.Each(func(a, b int, bytes float64) {
		j += cs.pr.Edge(cs.node[a], cs.puIdx[a], cs.node[b], cs.puIdx[b], bytes)
	})
	return j
}
