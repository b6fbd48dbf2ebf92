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

// DefaultMaxSweeps bounds the refinement sweeps when the caller does not
// set a limit. Greedy pairwise refinement converges in a handful of
// sweeps on the standard patterns; the cap only guards pathological
// cases.
const DefaultMaxSweeps = 8

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

// RefineMap polishes rank placements with greedy pairwise swaps: each
// rank in turn looks at its heaviest off-node communication partner and
// evaluates swapping itself with every rank on that partner's node,
// taking the most J-lowering swap if any strictly improves. Every
// candidate is priced by Cost.DeltaSwap in O(degree), so a full sweep is
// O(nnz · ranks-per-node) and per-swap cost is independent of np. Sweeps
// repeat until none improves or maxSweeps (DefaultMaxSweeps when <= 0)
// is hit. Swapping placements wholesale is always valid — the two ranks
// exchange complete processor claims — so no compatibility classes are
// needed. The input map is returned unchanged when no swap helps.
func RefineMap(c *cluster.Cluster, mo *netsim.Model, tm *commpat.Matrix, m *core.Map, maxSweeps int) (*core.Map, *RefineResult, error) {
	return RefineMapContext(context.Background(), c, mo, tm, m, maxSweeps)
}

// RefineMapContext is RefineMap with cooperative cancellation, checked
// between refinement sweeps (never inside the per-rank delta loop, which
// must stay allocation-free). A canceled refinement returns the best map
// found so far together with the cancellation error.
func RefineMapContext(ctx context.Context, c *cluster.Cluster, mo *netsim.Model, tm *commpat.Matrix, m *core.Map, maxSweeps int) (*core.Map, *RefineResult, error) {
	pr, err := mo.Pricing(c)
	if err != nil {
		return nil, nil, err
	}
	cost, err := netsim.NewCost(pr, tm, m)
	if err != nil {
		return nil, nil, err
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultMaxSweeps
	}
	res := &RefineResult{JBefore: cost.J(), JAfter: cost.J()}
	np := m.NumRanks()

	// Ranks per node, ascending (ranks are visited in order, so the
	// lists build sorted).
	byNode := make([][]int32, c.NumNodes())
	cnt := make([]int, c.NumNodes())
	for r := 0; r < np; r++ {
		cnt[cost.NodeOf(r)]++
	}
	for n := range byNode {
		byNode[n] = make([]int32, 0, cnt[n])
	}
	for r := 0; r < np; r++ {
		byNode[cost.NodeOf(r)] = append(byNode[cost.NodeOf(r)], int32(r))
	}

	out := &core.Map{Layout: m.Layout, Sweeps: m.Sweeps,
		Placements: append([]core.Placement(nil), m.Placements...)}

	for res.Sweeps < maxSweeps {
		if err := ctx.Err(); err != nil {
			break
		}
		res.Sweeps++
		improved := false
		for r := 0; r < np; r++ {
			peers, outB, inB := cost.Neighbors(r)
			// Heaviest off-node partner (first wins ties — deterministic).
			bt, btW := -1, 0.0
			rNode := cost.NodeOf(r)
			for k, p := range peers {
				if cost.NodeOf(int(p)) == rNode {
					continue
				}
				if w := outB[k] + inB[k]; w > btW {
					bt, btW = int(p), w
				}
			}
			if bt < 0 {
				continue
			}
			// Best strictly-improving swap with a rank on the partner's
			// node (first minimal candidate wins ties — deterministic).
			best, bestD := -1, -swapEps
			for _, s := range byNode[cost.NodeOf(bt)] {
				if d := cost.DeltaSwap(r, int(s)); d < bestD {
					best, bestD = int(s), d
				}
			}
			if best < 0 {
				continue
			}
			sNode := cost.NodeOf(best)
			cost.ApplySwap(r, best)
			swapPlacements(out, r, best)
			replaceSorted(byNode[rNode], int32(r), int32(best))
			replaceSorted(byNode[sNode], int32(best), int32(r))
			res.Swaps++
			improved = true
		}
		if !improved {
			break
		}
	}
	res.JAfter = cost.J()
	if res.Swaps == 0 {
		return m, res, nil
	}
	return out, res, nil
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

// swapPlacements exchanges everything but the Rank field between two
// placements: rank order stays canonical while the processor assignment
// moves.
func swapPlacements(m *core.Map, a, b int) {
	pa, pb := &m.Placements[a], &m.Placements[b]
	*pa, *pb = *pb, *pa
	pa.Rank, pb.Rank = a, b
}

// Refine is the delta-J pairwise-swap refinement post-pass
// (place.Stage). It composes after Stage (node ordering) or alone.
type Refine struct {
	// Net is the inter-node network, priced with default intra-node
	// parameters.
	Net netsim.Network
	// MaxSweeps bounds the refinement sweeps; <= 0 means
	// DefaultMaxSweeps.
	MaxSweeps int
	// OnResult, when set, receives the refinement outcome.
	OnResult func(*RefineResult)
}

// StageName returns the registered netrefine span label.
func (s *Refine) StageName() string { return obs.SpanNetRefine }

// Apply runs the refinement and emits a "netsim"/"refine" event with the
// J before/after.
func (s *Refine) Apply(ctx context.Context, req *place.Request, m *core.Map) (*core.Map, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("netorder: refine stage needs a network model")
	}
	if req.Traffic == nil {
		return nil, fmt.Errorf("netorder: refine stage needs req.Traffic")
	}
	out, res, err := RefineMapContext(ctx, req.Cluster, netsim.NewModel(s.Net), req.Traffic, m, s.MaxSweeps)
	if err != nil {
		return nil, err
	}
	if s.OnResult != nil {
		s.OnResult(res)
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
