// Package netorder makes placement network-aware at scale: it reorders
// which physical node hosts each mapped node-group so heavily
// communicating groups land topologically near each other, then (see
// refine.go) polishes rank placements with greedy pairwise swaps priced
// by the O(degree) delta-J evaluator, either against each rank's partner
// node or, as communicator rank reordering on a fixed mapping, over all
// rank pairs. Each pass compiles one flat netsim.Pricing and runs over it
// and the sparse traffic matrix, so the node ordering and the
// partner-node search stay usable at 100k+ ranks where per-pair
// interface dispatch and dense matrices are out of the question. They
// compose as place.Stage post-passes with any registered policy — lama,
// treematch, torus, ... — mirroring how Schulz & Träff separate
// intra-node ordering from inter-node assignment (PAPERS.md).
package netorder

import (
	"context"
	"fmt"
	"sort"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
)

// Result reports one node-ordering pass.
type Result struct {
	// JBefore and JAfter are the J(C,D,Π) objective before and after; the
	// pass reverts itself when reordering does not strictly improve J, so
	// JAfter <= JBefore always.
	JBefore, JAfter float64
	// MovedNodes counts node-groups whose physical node changed;
	// MovedRanks the ranks riding along.
	MovedNodes, MovedRanks int
	// Classes is the number of distinct node-compatibility classes among
	// the nodes hosting ranks (a group only moves within its class).
	Classes int
}

// OrderNodes permutes which physical node hosts each of m's node-groups
// to reduce the J objective: node-groups are sequenced by max-adjacency
// (heaviest-communicating first, each next group the one talking most to
// the already-sequenced set) and then greedily assigned to the
// compatible physical node minimizing hop-weighted traffic to the
// groups already placed. Ranks keep their PUs — a group only moves to a
// node with identical topology shape, PU numbering, availability and slot
// limits, and each rank's leaf becomes the same object of the new node's
// tree — so the permuted map is valid by construction. If the permutation does
// not strictly improve J the input map is returned unchanged.
func OrderNodes(c *cluster.Cluster, mo *netsim.Model, tm *commpat.Matrix, m *core.Map) (*core.Map, *Result, error) {
	pr, err := mo.Pricing(c)
	if err != nil {
		return nil, nil, err
	}
	cost, err := netsim.NewCost(pr, tm, m)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{JBefore: cost.J(), JAfter: cost.J()}

	np := m.NumRanks()
	ranksOn := make([]int, c.NumNodes())
	for r := 0; r < np; r++ {
		ranksOn[cost.NodeOf(r)]++
	}
	var used []int
	for n, k := range ranksOn {
		if k > 0 {
			used = append(used, n)
		}
	}
	if len(used) < 2 {
		return m, res, nil
	}

	// Node compatibility classes: a group may only move between nodes
	// whose topology tree, PU numbering, availability and slot limits are
	// identical.
	class := make([]int, c.NumNodes())
	classIDs := map[string]int{}
	var key []byte
	for n, nd := range c.Nodes {
		key = nd.AppendStateKey(key[:0])
		id, ok := classIDs[string(key)]
		if !ok {
			id = len(classIDs)
			classIDs[string(key)] = id
		}
		class[n] = id
	}
	seenClass := make([]bool, len(classIDs))
	for _, n := range used {
		if !seenClass[class[n]] {
			seenClass[class[n]] = true
			res.Classes++
		}
	}

	g := nodeGraph(cost, tm, used)

	order := maxAdjacencyOrder(g)

	// Greedy assignment: give each group, in order, the compatible free
	// physical node minimizing hop-weighted traffic to already-assigned
	// groups. Candidate pool: every node of the group's class (unused
	// nodes included — an empty well-placed node is a fine target). Each
	// candidate costs O(degree) — the group's communicating peers only —
	// so the whole assignment is O(U · nodes · degree), which stays
	// tractable at thousands of nodes.
	assign := make([]int, len(used)) // used-index -> physical node
	for i := range assign {
		assign[i] = -1
	}
	taken := make([]bool, c.NumNodes())
	for _, ui := range order {
		uClass := class[used[ui]]
		bestNode, bestCost := -1, 0.0
		for p := 0; p < c.NumNodes(); p++ {
			if taken[p] || class[p] != uClass {
				continue
			}
			cst := 0.0
			for k := g.off[ui]; k < g.off[ui+1]; k++ {
				if pv := assign[g.peer[k]]; pv >= 0 {
					cst += g.wgt[k] * float64(pr.Hops(p, pv))
				}
			}
			if bestNode < 0 || cst < bestCost {
				bestNode, bestCost = p, cst
			}
		}
		if bestNode < 0 {
			// No compatible free node (should not happen: the group's own
			// node is compatible with itself). Keep the group in place.
			bestNode = used[ui]
		}
		assign[ui] = bestNode
		taken[bestNode] = true
	}

	// Apply the permutation to a copy.
	perm := make([]int, c.NumNodes())
	for n := range perm {
		perm[n] = n
	}
	for i, u := range used {
		perm[u] = assign[i]
	}
	out := &core.Map{Layout: m.Layout, Sweeps: m.Sweeps,
		Placements: append([]core.Placement(nil), m.Placements...)}
	for r := range out.Placements {
		p := &out.Placements[r]
		old := p.Node
		nn := perm[old]
		if nn == old {
			continue
		}
		p.Node = nn
		p.NodeName = c.Nodes[nn].Name
		if p.Leaf != nil {
			p.Leaf = c.Nodes[nn].Topo.ObjectAt(p.Leaf.Level, p.Leaf.Logical)
		}
		res.MovedRanks++
	}
	for i, u := range used {
		if assign[i] != u {
			res.MovedNodes++
		}
	}
	if res.MovedNodes == 0 {
		return m, res, nil
	}

	after, err := netsim.NewCost(pr, tm, out)
	if err != nil {
		return nil, nil, err
	}
	if after.J() >= res.JBefore {
		res.JAfter = res.JBefore
		res.MovedNodes, res.MovedRanks = 0, 0
		return m, res, nil
	}
	res.JAfter = after.J()
	return out, res, nil
}

// nodeAdj is the sparse symmetric used-node communication graph in CSR
// form: group ui's communicating peer groups occupy
// peer/wgt[off[ui]:off[ui+1]]. Sparse matters: at 100k ranks the
// used-node count is in the thousands and a dense U×U matrix would cost
// hundreds of megabytes for a graph that is O(U) edges on neighbor
// patterns.
type nodeAdj struct {
	nu   int
	off  []int32
	peer []int32
	wgt  []float64
}

type nodeEdge struct {
	a, b int32
	w    float64
}

// nodeGraph aggregates rank traffic into the used-node adjacency:
// directed rank entries collapse onto undirected node-pair weights via
// an edge list sorted and merged in place (no map iteration — the graph
// feeds deterministic ordering).
func nodeGraph(cost *netsim.Cost, tm *commpat.Matrix, used []int) *nodeAdj {
	nu := len(used)
	uIdx := make(map[int]int32, nu)
	for i, n := range used {
		uIdx[n] = int32(i)
	}
	var edges []nodeEdge
	tm.Each(func(i, j int, bytes float64) {
		ni, nj := cost.NodeOf(i), cost.NodeOf(j)
		if ni == nj {
			return
		}
		a, b := uIdx[ni], uIdx[nj]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, nodeEdge{a, b, bytes})
	})
	edges = mergeEdges(edges)
	// Symmetrize into CSR.
	g := &nodeAdj{nu: nu, off: make([]int32, nu+1)}
	for _, e := range edges {
		g.off[e.a+1]++
		g.off[e.b+1]++
	}
	for i := 0; i < nu; i++ {
		g.off[i+1] += g.off[i]
	}
	g.peer = make([]int32, g.off[nu])
	g.wgt = make([]float64, g.off[nu])
	cur := make([]int32, nu)
	copy(cur, g.off[:nu])
	for _, e := range edges {
		k := cur[e.a]
		cur[e.a]++
		g.peer[k], g.wgt[k] = e.b, e.w
		k = cur[e.b]
		cur[e.b]++
		g.peer[k], g.wgt[k] = e.a, e.w
	}
	return g
}

// mergeEdges sorts (a,b)-keyed edges and sums duplicates.
func mergeEdges(edges []nodeEdge) []nodeEdge {
	sort.Slice(edges, func(x, y int) bool {
		if edges[x].a != edges[y].a {
			return edges[x].a < edges[y].a
		}
		return edges[x].b < edges[y].b
	})
	w := 0
	for k := range edges {
		if w > 0 && edges[w-1].a == edges[k].a && edges[w-1].b == edges[k].b {
			edges[w-1].w += edges[k].w
			continue
		}
		edges[w] = edges[k]
		w++
	}
	return edges[:w]
}

// maxAdjacencyOrder sequences the groups: seed = heaviest total traffic,
// then repeatedly the unsequenced group with the largest total weight to
// the sequenced set. Ties break on the lower index, so the order is
// deterministic. O(U² + edges).
func maxAdjacencyOrder(g *nodeAdj) []int {
	nu := g.nu
	gain := make([]float64, nu)
	for i := 0; i < nu; i++ {
		for k := g.off[i]; k < g.off[i+1]; k++ {
			gain[i] += g.wgt[k]
		}
	}
	seed := 0
	for i := 1; i < nu; i++ {
		if gain[i] > gain[seed] {
			seed = i
		}
	}
	order := make([]int, 0, nu)
	done := make([]bool, nu)
	conn := make([]float64, nu)
	cur := seed
	for {
		order = append(order, cur)
		done[cur] = true
		if len(order) == nu {
			return order
		}
		for k := g.off[cur]; k < g.off[cur+1]; k++ {
			conn[g.peer[k]] += g.wgt[k]
		}
		next := -1
		for i := 0; i < nu; i++ {
			if done[i] {
				continue
			}
			if next < 0 || conn[i] > conn[next] {
				next = i
			}
		}
		cur = next
	}
}

// Stage is the node-ordering post-pass (place.Stage). It requires the
// request's Traffic matrix and a network, priced with default intra-node
// parameters.
type Stage struct {
	// Net is the inter-node network to order against.
	Net netsim.Network
}

// StageName returns the registered netorder span label.
func (s *Stage) StageName() string { return obs.SpanNetOrder }

// Apply runs the ordering pass and emits a "netsim"/"order" event with
// the J before/after.
func (s *Stage) Apply(_ context.Context, req *place.Request, m *core.Map) (*core.Map, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("netorder: stage needs a network model")
	}
	if req.Traffic == nil {
		return nil, fmt.Errorf("netorder: stage needs req.Traffic")
	}
	out, res, err := OrderNodes(req.Cluster, netsim.NewModel(s.Net), req.Traffic, m)
	if err != nil {
		return nil, err
	}
	if o := req.Opts.Obs; o.Enabled() {
		o.Emit(obs.SrcNetSim, obs.EvOrder,
			obs.F("j_before", res.JBefore),
			obs.F("j_after", res.JAfter),
			obs.F("moved_nodes", res.MovedNodes),
			obs.F("moved_ranks", res.MovedRanks),
			obs.F("classes", res.Classes))
	}
	return out, nil
}
