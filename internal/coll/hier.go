package coll

import (
	"fmt"
	"sort"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/netsim"
)

// RunHierarchical simulates the hierarchy-aware (two-level, node-leader)
// variant of a collective: intra-node traffic is funneled through one
// leader rank per node, only leaders talk across the network, and the
// result fans back out locally. This is the standard optimization for
// multi-core clusters and the natural companion of locality-aware mapping:
// its benefit is largest exactly when a mapping co-locates many ranks.
// Supported ops: Broadcast and AllreduceRD; others fall back to Run.
func RunHierarchical(op Op, c *cluster.Cluster, m *core.Map, model *netsim.Model, bytes float64) (*Result, error) {
	if m.NumRanks() == 0 {
		return nil, fmt.Errorf("coll: empty map")
	}
	if bytes < 0 {
		return nil, fmt.Errorf("coll: negative message size")
	}
	switch op {
	case Broadcast, AllreduceRD:
	default:
		return Run(op, c, m, model, bytes)
	}

	// Group ranks by node; the leader is each node's lowest rank.
	perNode := map[int][]int{}
	for i := range m.Placements {
		p := &m.Placements[i]
		perNode[p.Node] = append(perNode[p.Node], p.Rank)
	}
	var leaders []int
	local := map[int][]int{} // leader -> followers (excluding leader)
	for _, ranks := range perNode {
		sort.Ints(ranks)
		leader := ranks[0]
		leaders = append(leaders, leader)
		local[leader] = ranks[1:]
	}
	sort.Ints(leaders)

	sim, err := newRoundSim(c, m, model)
	if err != nil {
		return nil, err
	}
	switch op {
	case Broadcast:
		hierBroadcast(sim, leaders, local, bytes)
	case AllreduceRD:
		hierReduceToLeaders(sim, local, bytes)
		leaderAllreduceRD(sim, leaders, bytes)
		hierFanOut(sim, leaders, local, bytes)
	}
	return sim.finish()
}

// hierBroadcast: rank 0 hands off to its leader if needed, leaders run a
// binomial tree among themselves, then every leader fans out locally (all
// nodes in parallel).
func hierBroadcast(s *roundSim, leaders []int, local map[int][]int, bytes float64) {
	rootLeader := leaderOf(s, leaders, local, 0)
	if rootLeader != 0 {
		s.round([][3]float64{{0, float64(rootLeader), bytes}})
	}
	// Order leaders with the root's leader first.
	ordered := append([]int{rootLeader}, exclude(leaders, rootLeader)...)
	for span := 1; span < len(ordered); span *= 2 {
		var pairs [][3]float64
		for src := 0; src < span && src+span < len(ordered); src++ {
			pairs = append(pairs, [3]float64{float64(ordered[src]), float64(ordered[src+span]), bytes})
		}
		s.round(pairs)
	}
	hierFanOut(s, leaders, local, bytes)
}

// hierFanOut: every leader binomial-broadcasts to its local followers; all
// nodes proceed in parallel, so the number of rounds is set by the node
// with the most local ranks.
func hierFanOut(s *roundSim, leaders []int, local map[int][]int, bytes float64) {
	maxLocal := 0
	for _, f := range local {
		if len(f) > maxLocal {
			maxLocal = len(f)
		}
	}
	for span := 1; span < maxLocal+1; span *= 2 {
		var pairs [][3]float64
		for _, leader := range leaders {
			group := append([]int{leader}, local[leader]...)
			for src := 0; src < span && src+span < len(group); src++ {
				pairs = append(pairs, [3]float64{float64(group[src]), float64(group[src+span]), bytes})
			}
		}
		s.round(pairs)
	}
}

// hierReduceToLeaders is the mirror of hierFanOut: local ranks fold their
// vectors into the leader, deepest pairs first.
func hierReduceToLeaders(s *roundSim, local map[int][]int, bytes float64) {
	maxLocal := 0
	for _, f := range local {
		if len(f) > maxLocal {
			maxLocal = len(f)
		}
	}
	spans := []int{}
	for span := 1; span < maxLocal+1; span *= 2 {
		spans = append(spans, span)
	}
	for i := len(spans) - 1; i >= 0; i-- {
		span := spans[i]
		var pairs [][3]float64
		for leader, followers := range local {
			group := append([]int{leader}, followers...)
			for src := 0; src < span && src+span < len(group); src++ {
				pairs = append(pairs, [3]float64{float64(group[src+span]), float64(group[src]), bytes})
			}
		}
		s.round(pairs)
	}
}

// leaderAllreduceRD: recursive doubling among leaders with fold rounds for
// the non-power-of-two remainder.
func leaderAllreduceRD(s *roundSim, leaders []int, bytes float64) {
	n := len(leaders)
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	var fold [][3]float64
	for i := pow2; i < n; i++ {
		fold = append(fold, [3]float64{float64(leaders[i]), float64(leaders[i-pow2]), bytes})
	}
	s.round(fold)
	for mask := 1; mask < pow2; mask *= 2 {
		var pairs [][3]float64
		for i := 0; i < pow2; i++ {
			j := i ^ mask
			if i < j {
				pairs = append(pairs,
					[3]float64{float64(leaders[i]), float64(leaders[j]), bytes},
					[3]float64{float64(leaders[j]), float64(leaders[i]), bytes})
			}
		}
		s.round(pairs)
	}
	var out [][3]float64
	for i := 0; i < rem; i++ {
		out = append(out, [3]float64{float64(leaders[i]), float64(leaders[i+pow2]), bytes})
	}
	s.round(out)
}

// leaderOf finds the leader of the node hosting the given rank.
func leaderOf(s *roundSim, leaders []int, local map[int][]int, rank int) int {
	for _, leader := range leaders {
		if leader == rank {
			return leader
		}
		for _, f := range local[leader] {
			if f == rank {
				return leader
			}
		}
	}
	return leaders[0]
}

// exclude returns xs without v.
func exclude(xs []int, v int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
