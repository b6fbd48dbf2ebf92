// Package reorder implements communicator rank reordering: given a job
// that is already mapped (the resources are fixed), find a permutation of
// the MPI ranks onto the existing placements that lowers communication
// cost for a known traffic pattern. This is the complementary optimization
// to remapping — MPI exposes it through reorder-enabled communicator
// constructors — and, like TreeMatch, it is application-aware where the
// LAMA is deliberately pattern-oblivious.
//
// The optimizer is a deterministic greedy pairwise-swap local search:
// repeatedly apply the best rank swap until no swap improves the cost (or
// the sweep budget is exhausted).
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
	// Perm maps old rank -> new rank position: the process that was rank
	// r keeps its processor but acts as rank Perm[r] in the application.
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
	if tm.Ranks() != np {
		return nil, fmt.Errorf("reorder: traffic has %d ranks, map has %d", tm.Ranks(), np)
	}
	if maxSweeps <= 0 {
		maxSweeps = np
	}

	// Positions are the fixed processor slots; a permutation assigns
	// traffic endpoints to positions. Precompute per-position-pair unit
	// costs from the compiled pricing: lat + bytes/bw is affine in bytes,
	// so cost(bytes) = lat[p][q] + bytes*inv[p][q].
	pr, err := model.Pricing(c)
	if err != nil {
		return nil, err
	}
	node, pu, err := pr.Locate(m)
	if err != nil {
		return nil, err
	}
	lat := make([][]float64, np)
	inv := make([][]float64, np)
	for p := 0; p < np; p++ {
		lat[p] = make([]float64, np)
		inv[p] = make([]float64, np)
		for q := 0; q < np; q++ {
			if p == q {
				continue
			}
			l := pr.Edge(node[p], pu[p], node[q], pu[q], 0)
			full := pr.Edge(node[p], pu[p], node[q], pu[q], 1e6)
			lat[p][q] = l
			inv[p][q] = (full - l) / 1e6
		}
	}
	// pos[r] = position (processor slot) of rank r; initially identity.
	pos := make([]int, np)
	for r := range pos {
		pos[r] = r
	}
	total := func() float64 {
		sum := 0.0
		tm.Each(func(i, j int, bytes float64) {
			p, q := pos[i], pos[j]
			sum += lat[p][q] + bytes*inv[p][q]
		})
		return sum
	}
	// partners row r: every rank r exchanges traffic with, either way,
	// ascending — the only o for which rankCost's per-partner terms are
	// nonzero.
	sym := commpat.NewBuilder(np)
	tm.Each(sym.AddSym)
	partners := sym.Build()
	// rankCost: the cost of all traffic touching ranks a or b under pos,
	// summed partner by partner in ascending o, a's terms before b's; the
	// pair's own traffic is counted once more at the end.
	rankCost := func(a, b int) float64 {
		sum := 0.0
		terms := func(r, o int) {
			if bytes := tm.Bytes(r, o); bytes > 0 {
				sum += lat[pos[r]][pos[o]] + bytes*inv[pos[r]][pos[o]]
			}
			if bytes := tm.Bytes(o, r); bytes > 0 {
				sum += lat[pos[o]][pos[r]] + bytes*inv[pos[o]][pos[r]]
			}
		}
		pa, _ := partners.Row(a)
		pb, _ := partners.Row(b)
		for x, y := 0, 0; x < len(pa) || y < len(pb); {
			oa, ob := int32(np), int32(np)
			if x < len(pa) {
				oa = pa[x]
			}
			if y < len(pb) {
				ob = pb[y]
			}
			if oa <= ob {
				terms(a, int(oa))
				x++
			}
			if ob <= oa {
				if int(ob) != a {
					terms(b, int(ob))
				}
				y++
			}
		}
		if bytes := tm.Bytes(a, b); bytes > 0 {
			sum += lat[pos[a]][pos[b]] + bytes*inv[pos[a]][pos[b]]
		}
		if bytes := tm.Bytes(b, a); bytes > 0 {
			sum += lat[pos[b]][pos[a]] + bytes*inv[pos[b]][pos[a]]
		}
		return sum
	}

	res := &Result{Before: total()}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for a := 0; a < np; a++ {
			for b := a + 1; b < np; b++ {
				before := rankCost(a, b)
				pos[a], pos[b] = pos[b], pos[a]
				after := rankCost(a, b)
				if after+1e-12 < before {
					improved = true
					res.Swaps++
				} else {
					pos[a], pos[b] = pos[b], pos[a] // revert
				}
			}
		}
		if !improved {
			break
		}
	}
	res.After = total()

	// Build the permuted map: the process at position pos[r] carries
	// application rank r.
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
