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
	"sync"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
)

// Map places np ranks onto the cluster guided by the traffic matrix,
// greedily maximizing the traffic kept inside each topology subtree. It
// never oversubscribes; np must not exceed the cluster's usable PUs, and
// the traffic matrix must cover exactly np ranks.
//
// Map works in a scratch taken from a pool, so a warm call allocates its
// result and little else; it is safe for concurrent use.
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

	s := scratchPool.Get().(*scratch)
	s.reset(c, tm, np)

	// Top level: partition ranks across nodes.
	top := &s.levels[0]
	top.bins = top.bins[:0]
	for i, node := range c.Nodes {
		if capacity := node.Topo.NumUsablePUs(); capacity > 0 {
			top.bins = append(top.bins, bin{idx: i, capacity: capacity})
		}
	}
	for bi, ranks := range s.partition(top, s.ranks) {
		s.node = top.bins[bi].idx
		s.assign(c.Node(s.node).Topo.Root, ranks)
	}
	m := s.m
	s.release()
	return m, nil
}

// scratchPool holds idle scratches; see scratch.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch is what one Map call works in besides the map it returns: the
// affinity view of the traffic with the partitioner's per-rank state,
// each depth's bins and groups, and the output being filled. Between
// calls it holds no pointer into a cluster, a matrix or a map, and its
// per-rank state is clean: free all false, gain all zero, touched empty.
type scratch struct {
	// The traffic partition works on: row r of tm lists every rank r
	// exchanges traffic with, in either direction, peers ascending, and
	// the pair's symmetric weight is out + in, C[r][o] + C[o][r].
	tm    *commpat.Matrix
	total []float64 // each rank's traffic to all others, summed over ascending peers

	free    []bool    // in the current partition and not yet grouped
	gain    []float64 // traffic to the growing group, summed in join order; > 0 exactly for touched ranks
	touched []int     // ranks this bin made gain nonzero for: the candidates, and what to reset

	ranks    []int // 0..np-1, the top-level partition's ranks
	shares   []int // the current partition's group sizes
	heaviest []int // the current partition's ranks, heaviest first

	// levels[0] partitions across nodes, levels[l+1] across the children
	// of an object at level l. Levels only deepen down the tree, so a
	// level's groups stay intact while the deeper partitions of each of
	// them run.
	levels [hw.NumLevels + 1]level

	// The output, a core.NewPUMap filled rank by rank.
	c    *cluster.Cluster
	node int // the node being filled
	m    *core.Map
}

// level is one depth's partition: its bins and the groups it made, every
// group a window of backing.
type level struct {
	bins    []bin
	groups  [][]int
	backing []int
}

// bin is one partition target with a PU capacity.
type bin struct {
	idx      int
	capacity int
}

// reset readies the scratch for a Map of np ranks over tm on c.
func (s *scratch) reset(c *cluster.Cluster, tm *commpat.Matrix, np int) {
	s.c = c
	s.tm = tm
	s.total = resize(s.total, np)
	s.free = resize(s.free, np)
	s.gain = resize(s.gain, np)
	s.ranks = resize(s.ranks, np)
	for r := range s.ranks {
		s.ranks[r] = r
		_, out, in := s.tm.Row(r)
		t := 0.0
		for k := range out {
			t += out[k] + in[k]
		}
		s.total[r] = t
	}
	s.m = core.NewPUMap(np)
}

// release drops the scratch's pointers to the call's inputs and result
// and returns it to the pool.
func (s *scratch) release() {
	s.c, s.tm, s.m = nil, nil, nil
	scratchPool.Put(s)
}

// resize returns a slice of n elements, reusing buf's array when it is
// large enough. A reused array keeps its contents.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// assign recursively partitions ranks across obj's children by usable
// capacity, read off the node's usable-PU windows, bottoming out by
// pairing ranks with PUs.
func (s *scratch) assign(obj *hw.Object, ranks []int) {
	if len(ranks) == 0 {
		return
	}
	if obj.Level == hw.LevelPU {
		// Exactly one rank can land here (capacities guarantee it).
		s.m.SetPU(ranks[0], s.node, s.c.Node(s.node).Name, obj)
		return
	}
	// One bin per child with usable PUs; a bin's idx is the child's rank.
	lv := &s.levels[obj.Level+1]
	lv.bins = lv.bins[:0]
	topo := s.c.Node(s.node).Topo
	for i, ch := range obj.Children {
		if n := len(topo.UsableUnder(ch)); n > 0 {
			lv.bins = append(lv.bins, bin{idx: i, capacity: n})
		}
	}
	// Transparent levels (single usable child) recurse directly.
	if len(lv.bins) == 1 {
		s.assign(obj.Children[lv.bins[0].idx], ranks)
		return
	}
	for bi, group := range s.partition(lv, ranks) {
		s.assign(obj.Children[lv.bins[bi].idx], group)
	}
}

// partition splits ranks (ascending) into groups, one per bin of lv,
// greedily: each bin is seeded with the unassigned rank having the
// largest total traffic, then grown by repeatedly adding the unassigned
// rank with the most traffic to the bin's current members, until the bin
// holds its share. Ties break toward the lowest rank — determinism must
// never ride on map iteration order. Shares are computed proportionally
// to capacities so that small bins are not starved.
//
// The affinity of every rank to the growing group is kept in gain: a rank
// joining walks its row once, so picking costs O(touched ranks), not a
// rescan of the matrix. Each gain sums the same terms in the same order as
// a rescan would, so the picks, and the placements, are bit-identical.
//
// The groups are lv's, each a window of one backing array cut to its
// share, so filling them never grows a slice.
func (s *scratch) partition(lv *level, ranks []int) [][]int {
	// Shares: fill bins in order, each taking min(capacity, what's left).
	// (Traffic-aware seeding below decides *which* ranks, not how many.)
	s.shares = s.shares[:0]
	left := len(ranks)
	for _, b := range lv.bins {
		take := min(b.capacity, left)
		s.shares = append(s.shares, take)
		left -= take
	}
	lv.backing = resize(lv.backing, len(ranks))
	lv.groups = lv.groups[:0]
	off := 0
	for _, share := range s.shares {
		lv.groups = append(lv.groups, lv.backing[off:off:off+share])
		off += share
	}
	groups := lv.groups

	// Seeds come heaviest first; the fallback pick is the lowest free rank.
	s.heaviest = append(s.heaviest[:0], ranks...)
	total := s.total
	slices.SortStableFunc(s.heaviest, func(x, y int) int { return cmp.Compare(total[y], total[x]) })
	for _, r := range ranks {
		s.free[r] = true
	}
	seed, lowest := 0, 0 // cursors into heaviest and ranks, past grouped ranks

	for i, share := range s.shares {
		for len(groups[i]) < share {
			r := -1
			if len(groups[i]) == 0 {
				for !s.free[s.heaviest[seed]] {
					seed++
				}
				r = s.heaviest[seed]
			} else {
				for _, p := range s.touched {
					if s.free[p] && (r < 0 || s.gain[p] > s.gain[r] || (s.gain[p] == s.gain[r] && p < r)) {
						r = p
					}
				}
				if r < 0 {
					for !s.free[ranks[lowest]] {
						lowest++
					}
					r = ranks[lowest]
				}
			}
			s.free[r] = false
			groups[i] = append(groups[i], r)
			peers, out, in := s.tm.Row(r)
			for k, p := range peers {
				if s.free[p] {
					if s.gain[p] == 0 {
						s.touched = append(s.touched, int(p))
					}
					s.gain[p] += out[k] + in[k]
				}
			}
		}
		for _, p := range s.touched {
			s.gain[p] = 0
		}
		s.touched = s.touched[:0]
		sort.Ints(groups[i])
	}
	return groups
}
