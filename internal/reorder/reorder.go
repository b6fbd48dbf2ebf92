// Package reorder implements communicator rank reordering: given a job
// that is already mapped (the resources are fixed), find a permutation of
// the MPI ranks onto the existing placements that lowers communication
// cost for a known traffic pattern. This is the complementary optimization
// to remapping — MPI exposes it through reorder-enabled communicator
// constructors — and, like TreeMatch, it is application-aware where the
// LAMA is deliberately pattern-oblivious.
//
// The optimizer is a deterministic first-improvement pairwise-swap local
// search over netsim.Cost: each sweep visits every rank pair (a, b), a < b,
// in order and applies the swap whenever Cost.DeltaSwap, O(degree) per
// pair, prices it below -1e-12, until a sweep applies none or the sweep
// budget runs out.
package reorder

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
)

// Result describes one reordering run.
type Result struct {
	// Perm maps application rank -> old rank: application rank r runs on
	// the processor old rank Perm[r] held, so Map.Placements[r] is the
	// input map's Placements[Perm[r]] with Rank set to r.
	Perm []int
	// Before and After are the evaluated total communication times.
	Before, After float64
	// Swaps is the number of improving swaps applied.
	Swaps int
	// Map is the reordered mapping plan (placements permuted).
	Map *core.Map
}

// Optimize searches for a cost-reducing rank permutation of m under the
// traffic matrix. maxSweeps bounds the local search (a sweep examines all
// O(n²) pairs); 0 means sweep until convergence (at most n sweeps).
func Optimize(c *cluster.Cluster, m *core.Map, model *netsim.Model,
	tm *commpat.Matrix, maxSweeps int) (*Result, error) {
	np := m.NumRanks()
	if np == 0 {
		return nil, fmt.Errorf("reorder: empty map")
	}
	if maxSweeps <= 0 {
		maxSweeps = np
	}
	pr, err := model.Pricing(c)
	if err != nil {
		return nil, err
	}
	cost, err := netsim.NewCost(pr, tm, m)
	if err != nil {
		return nil, err
	}
	// pos[r] = the old rank whose processor rank r holds; initially identity.
	pos := make([]int, np)
	for r := range pos {
		pos[r] = r
	}
	res := &Result{Before: cost.J()}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for a := 0; a < np; a++ {
			for b := a + 1; b < np; b++ {
				if cost.DeltaSwap(a, b) < -1e-12 {
					cost.ApplySwap(a, b)
					pos[a], pos[b] = pos[b], pos[a]
					res.Swaps++
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	res.After = cost.Recompute()

	res.Perm = pos
	nm := &core.Map{Layout: m.Layout, Sweeps: m.Sweeps}
	nm.Placements = make([]core.Placement, np)
	for r := 0; r < np; r++ {
		p := m.Placements[pos[r]] // copy of the slot's placement
		p.Rank = r
		nm.Placements[r] = p
	}
	res.Map = nm
	return res, nil
}
