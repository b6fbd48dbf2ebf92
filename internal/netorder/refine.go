package netorder

import (
	"context"
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
)

// Search selects which rank pairs RefineMap prices and which improving
// swap it takes.
type Search int

const (
	// PartnerNode pairs each rank with every rank on the node of its
	// heaviest off-node partner (first wins ties) and takes the pair's
	// most J-lowering swap: O(nnz · ranks-per-node) per sweep, so the
	// per-swap cost is independent of np.
	PartnerNode Search = iota
	// AllPairs pairs each rank a with every rank b > a and takes each
	// improving swap as it is found: O(np² · degree) per sweep. This is
	// communicator rank reordering (MPI's reorder-enabled communicator
	// constructors), which also finds the intra-node swaps PartnerNode
	// never looks at.
	AllPairs
)

// swapEps is the strict-improvement threshold: a swap is taken only when
// it lowers J by more than this, so float noise can neither churn the
// map nor keep a sweep "improving" forever.
const swapEps = 1e-9

// RefineResult reports one refinement pass.
type RefineResult struct {
	// JBefore and JAfter bracket the refinement; JAfter <= JBefore.
	JBefore, JAfter float64
	// Swaps counts the placement swaps taken, Sweeps the passes over the
	// rank list (including the final quiescent one).
	Swaps, Sweeps int
}

// RefineMap lowers m's J under the traffic with a deterministic pairwise
// swap search: each sweep visits the ranks in order and prices the
// search's candidate swaps for each with Cost.DeltaSwap in O(degree).
// Swapping placements wholesale is always valid — the two ranks exchange
// complete processor claims, every field but Rank — so no compatibility
// classes are needed. Sweeps repeat until one applies no swap or
// maxSweeps is hit; maxSweeps <= 0 means at most np sweeps.
//
// Cancellation is checked between sweeps, never inside the per-rank delta
// loop, which must stay allocation-free: a canceled refinement returns
// the best map found so far together with ctx.Err(). The input map is
// returned unchanged when no swap helps.
func RefineMap(ctx context.Context, c *cluster.Cluster, mo *netsim.Model, tm *commpat.Matrix, m *core.Map, search Search, maxSweeps int) (*core.Map, *RefineResult, error) {
	pr, err := mo.Pricing(c)
	if err != nil {
		return nil, nil, err
	}
	cost, err := netsim.NewCost(pr, tm, m)
	if err != nil {
		return nil, nil, err
	}
	np := m.NumRanks()
	if maxSweeps <= 0 {
		maxSweeps = np
	}
	res := &RefineResult{JBefore: cost.J()}
	out := &core.Map{Layout: m.Layout, Sweeps: m.Sweeps,
		Placements: append([]core.Placement(nil), m.Placements...)}

	// Candidate lists: all ranks ascending (AllPairs reads the suffix
	// past a), or the ranks on each node ascending (PartnerNode).
	var ranks []int32
	var byNode [][]int32
	if search == AllPairs {
		ranks = make([]int32, np)
		for r := range ranks {
			ranks[r] = int32(r)
		}
	} else {
		byNode = ranksByNode(cost, c.NumNodes(), np)
	}
	swap := func(a, b int) {
		if byNode != nil {
			na, nb := cost.NodeOf(a), cost.NodeOf(b)
			replaceSorted(byNode[na], int32(a), int32(b))
			replaceSorted(byNode[nb], int32(b), int32(a))
		}
		cost.ApplySwap(a, b)
		pa, pb := &out.Placements[a], &out.Placements[b]
		*pa, *pb = *pb, *pa
		pa.Rank, pb.Rank = a, b
		res.Swaps++
	}

	for res.Sweeps < maxSweeps {
		if err = ctx.Err(); err != nil {
			break
		}
		res.Sweeps++
		swaps := res.Swaps
		for a := 0; a < np; a++ {
			var cands []int32
			if search == AllPairs {
				cands = ranks[a+1:]
			} else if n := partnerNode(cost, tm, a); n >= 0 {
				cands = byNode[n]
			}
			// PartnerNode keeps the first minimal candidate (ties stay
			// deterministic); AllPairs swaps at every improving one.
			best, bestD := -1, -swapEps
			for _, b := range cands {
				d := cost.DeltaSwap(a, int(b))
				switch {
				case d >= bestD: // no improvement on the best so far
				case search == AllPairs:
					swap(a, int(b))
				default:
					best, bestD = int(b), d
				}
			}
			if best >= 0 {
				swap(a, best)
			}
		}
		if res.Swaps == swaps {
			break
		}
	}
	res.JAfter = cost.J()
	if res.Swaps == 0 {
		return m, res, err
	}
	return out, res, err
}

// ranksByNode lists the ranks on each node, ascending.
func ranksByNode(cost *netsim.Cost, nodes, np int) [][]int32 {
	cnt := make([]int, nodes)
	for r := 0; r < np; r++ {
		cnt[cost.NodeOf(r)]++
	}
	byNode := make([][]int32, nodes)
	for n := range byNode {
		byNode[n] = make([]int32, 0, cnt[n])
	}
	for r := 0; r < np; r++ {
		byNode[cost.NodeOf(r)] = append(byNode[cost.NodeOf(r)], int32(r))
	}
	return byNode
}

// partnerNode returns the node of r's heaviest off-node partner (the
// first wins ties), or -1 when all of r's traffic stays on its node.
func partnerNode(cost *netsim.Cost, tm *commpat.Matrix, r int) int {
	peers, outB, inB := tm.Row(r)
	rNode := cost.NodeOf(r)
	node, w := -1, 0.0
	for k, p := range peers {
		pn := cost.NodeOf(int(p))
		if pn == rNode {
			continue
		}
		if v := outB[k] + inB[k]; v > w {
			node, w = pn, v
		}
	}
	return node
}

// replaceSorted substitutes new for old in a sorted slice and re-sorts
// it by bubbling, allocation-free (the swap moves one element).
func replaceSorted(l []int32, old, new int32) {
	for i, v := range l {
		if v != old {
			continue
		}
		l[i] = new
		for i > 0 && l[i-1] > l[i] {
			l[i-1], l[i] = l[i], l[i-1]
			i--
		}
		for i+1 < len(l) && l[i] > l[i+1] {
			l[i], l[i+1] = l[i+1], l[i]
			i++
		}
		return
	}
}

// Refine is the delta-J pairwise-swap refinement post-pass
// (place.Stage), running the PartnerNode search to convergence. It
// composes after Stage (node ordering) or alone.
type Refine struct {
	// Net is the inter-node network, priced with default intra-node
	// parameters.
	Net netsim.Network
}

// StageName returns the registered netrefine span label.
func (s *Refine) StageName() string { return obs.SpanNetRefine }

// Apply runs the refinement and emits a "netsim"/"refine" event with the
// J before/after. A canceled refinement fails the stage.
func (s *Refine) Apply(ctx context.Context, req *place.Request, m *core.Map) (*core.Map, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("netorder: refine stage needs a network model")
	}
	if req.Traffic == nil {
		return nil, fmt.Errorf("netorder: refine stage needs req.Traffic")
	}
	out, res, err := RefineMap(ctx, req.Cluster, netsim.NewModel(s.Net), req.Traffic, m, PartnerNode, 0)
	if err != nil {
		return nil, err
	}
	if o := req.Opts.Obs; o.Enabled() {
		o.Emit(obs.SrcNetSim, obs.EvRefine,
			obs.F("j_before", res.JBefore),
			obs.F("j_after", res.JAfter),
			obs.F("swaps", res.Swaps),
			obs.F("sweeps", res.Sweeps))
	}
	return out, nil
}
