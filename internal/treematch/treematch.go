// Package treematch implements a simplified traffic-aware hierarchical
// mapper in the spirit of TreeMatch (Jeannot & Mercier, "Near-Optimal
// Placement of MPI Processes on Hierarchical NUMA Architectures" — the
// paper's reference [3]). Where the LAMA applies a user-chosen regular
// pattern obliviously to the application, TreeMatch reads the
// application's communication matrix and recursively partitions the ranks
// down the hardware tree so that heavily-communicating ranks share the
// deepest possible subtree.
//
// It serves two roles here: (1) the related-work comparator for the
// extension experiment E12, quantifying what pattern-oblivious mapping
// leaves on the table for irregular applications, and (2) a demonstration
// that the hw/cluster substrate supports mappers beyond the LAMA.
package treematch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
)

// Map places np ranks onto the cluster guided by the traffic matrix,
// greedily maximizing the traffic kept inside each topology subtree. It
// never oversubscribes; np must not exceed the cluster's usable PUs, and
// the traffic matrix must cover exactly np ranks.
func Map(c *cluster.Cluster, tm *commpat.Matrix, np int) (*core.Map, error) {
	if np <= 0 {
		return nil, fmt.Errorf("treematch: non-positive process count %d", np)
	}
	if tm.Ranks() != np {
		return nil, fmt.Errorf("treematch: traffic has %d ranks, want %d", tm.Ranks(), np)
	}
	if cap := c.TotalUsablePUs(); np > cap {
		return nil, fmt.Errorf("treematch: %d ranks exceed %d usable PUs", np, cap)
	}

	all := make([]int, np)
	for i := range all {
		all[i] = i
	}

	// Top level: partition ranks across nodes.
	bins := make([]bin, 0, c.NumNodes())
	for i, node := range c.Nodes {
		capacity := node.Topo.NumUsablePUs()
		if capacity > 0 {
			bins = append(bins, bin{idx: i, capacity: capacity})
		}
	}
	a := newAffinity(tm)
	groups := a.partition(all, bins)

	m := &core.Map{Sweeps: 1}
	placements := make([]core.Placement, np)
	pus := make([]int, np) // every rank's PUs is a one-element window
	for bi, ranks := range groups {
		nodeIdx := bins[bi].idx
		node := c.Node(nodeIdx)
		assignSubtree(a, node.Topo.Root, ranks, func(rank int, pu *hw.Object) {
			pus[rank] = pu.OS
			placements[rank] = core.Placement{
				Rank:     rank,
				Node:     nodeIdx,
				NodeName: node.Name,
				Coords:   core.NodeCoords(nodeIdx),
				Leaf:     pu,
				PUs:      pus[rank : rank+1 : rank+1],
			}
		})
	}
	m.Placements = placements
	return m, nil
}

// bin is one partition target with a PU capacity.
type bin struct {
	idx      int
	capacity int
}

// assignSubtree recursively partitions ranks across obj's children by
// usable capacity, bottoming out by pairing ranks with PUs. obj is usable:
// its ancestors are available.
func assignSubtree(a *affinity, obj *hw.Object, ranks []int, emit func(rank int, pu *hw.Object)) {
	if len(ranks) == 0 {
		return
	}
	if obj.Level == hw.LevelPU {
		// Exactly one rank can land here (capacities guarantee it).
		emit(ranks[0], obj)
		return
	}
	// One bin per child with usable PUs; a bin's idx is the child's rank.
	var bins []bin
	for i, ch := range obj.Children {
		if n := usableCount(ch); n > 0 {
			bins = append(bins, bin{idx: i, capacity: n})
		}
	}
	// Transparent levels (single usable child) recurse directly.
	if len(bins) == 1 {
		assignSubtree(a, obj.Children[bins[0].idx], ranks, emit)
		return
	}
	for bi, group := range a.partition(ranks, bins) {
		assignSubtree(a, obj.Children[bins[bi].idx], group, emit)
	}
}

// usableCount returns how many usable PUs o's subtree holds, given that
// o's ancestors are available, without collecting them.
func usableCount(o *hw.Object) int {
	if !o.Available {
		return 0
	}
	if o.Level == hw.LevelPU {
		return 1
	}
	n := 0
	for _, ch := range o.Children {
		n += usableCount(ch)
	}
	return n
}

// affinity is the symmetric view of a traffic matrix that partition works
// on, built once per Map: row r of inc lists every rank r exchanges traffic
// with, in either direction, peers ascending, and the pair's symmetric
// weight is out + in, C[r][o] + C[o][r]. It also holds the partitioner's
// per-rank scratch, reused at every tree level.
type affinity struct {
	inc   *commpat.Incident
	total []float64 // each rank's traffic to all others, summed over ascending peers

	free    []bool    // in the current partition and not yet grouped
	gain    []float64 // traffic to the growing group, summed in join order; > 0 exactly for touched ranks
	touched []int     // ranks this bin made gain nonzero for: the candidates, and what to reset
}

func newAffinity(tm *commpat.Matrix) *affinity {
	n := tm.Ranks()
	a := &affinity{
		inc:   tm.Incident(),
		total: make([]float64, n),
		free:  make([]bool, n),
		gain:  make([]float64, n),
	}
	for r := range a.total {
		_, out, in := a.inc.Row(r)
		for k := range out {
			a.total[r] += out[k] + in[k]
		}
	}
	return a
}

// partition splits ranks (ascending) into per-bin groups, greedily: each
// bin is seeded with the unassigned rank having the largest total traffic,
// then grown by repeatedly adding the unassigned rank with the most
// traffic to the bin's current members, until the bin holds its share.
// Ties break toward the lowest rank — determinism must never ride on map
// iteration order. Shares are computed proportionally to capacities so
// that small bins are not starved.
//
// The affinity of every rank to the growing group is kept in gain: a rank
// joining walks its row once, so picking costs O(touched ranks), not a
// rescan of the matrix. Each gain sums the same terms in the same order as
// a rescan would, so the picks, and the placements, are bit-identical.
func (a *affinity) partition(ranks []int, bins []bin) [][]int {
	groups := make([][]int, len(bins))

	// Shares: fill bins in order, each taking min(capacity, what's left).
	// (Traffic-aware seeding below decides *which* ranks, not how many.)
	shares := make([]int, len(bins))
	left := len(ranks)
	for i, b := range bins {
		take := b.capacity
		if take > left {
			take = left
		}
		shares[i] = take
		left -= take
	}

	// Seeds come heaviest first; the fallback pick is the lowest free rank.
	heaviest := append([]int(nil), ranks...)
	slices.SortStableFunc(heaviest, func(x, y int) int { return cmp.Compare(a.total[y], a.total[x]) })
	for _, r := range ranks {
		a.free[r] = true
	}
	seed, lowest := 0, 0 // cursors into heaviest and ranks, past grouped ranks

	for i := range bins {
		for len(groups[i]) < shares[i] {
			r := -1
			if len(groups[i]) == 0 {
				for !a.free[heaviest[seed]] {
					seed++
				}
				r = heaviest[seed]
			} else {
				for _, p := range a.touched {
					if a.free[p] && (r < 0 || a.gain[p] > a.gain[r] || (a.gain[p] == a.gain[r] && p < r)) {
						r = p
					}
				}
				if r < 0 {
					for !a.free[ranks[lowest]] {
						lowest++
					}
					r = ranks[lowest]
				}
			}
			a.free[r] = false
			groups[i] = append(groups[i], r)
			peers, out, in := a.inc.Row(r)
			for k, p := range peers {
				if a.free[p] {
					if a.gain[p] == 0 {
						a.touched = append(a.touched, int(p))
					}
					a.gain[p] += out[k] + in[k]
				}
			}
		}
		for _, p := range a.touched {
			a.gain[p] = 0
		}
		a.touched = a.touched[:0]
		sort.Ints(groups[i])
	}
	return groups
}
