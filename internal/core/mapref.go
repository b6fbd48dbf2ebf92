package core

import (
	"fmt"

	"lama/internal/hw"
)

// This file is the reference implementation of the mapping semantics: a
// deliberately naive executor that rebuilds its pruned trees from scratch
// on every call, keeps its claim counters in maps keyed by (node, hardware
// object), and re-walks the topology for every usable-PU query. It shares
// NOTHING with the optimized engine in mapper.go — no dense trees, no
// shape cache, no usable-PU window table, no freshness checks — so the
// two can only agree by actually computing the same mapping. MapReference also iterates with an
// explicit odometer instead of the paper's recursive loop nest, giving an
// independent traversal of the same resource space. Experiment E2 and the
// differential property tests require Map and MapReference to produce
// identical plans for any cluster, layout, options, and rank count,
// including on snapshots derived by failures (FailNode/FailPUs).

// refRun holds the state of one reference mapping execution.
type refRun struct {
	m   *Mapper
	np  int
	pes int

	iterLevels []hw.Level // innermost first (layout order)
	widths     []int      // iteration width per iterLevels index
	orders     [][]int    // visiting permutation per iterLevels index
	machineIdx int        // index of the node level within iterLevels
	canonPos   []int      // iterLevels index -> canonical intra position (-1 for node)
	mtree      *MaximalTree

	coords      []int // current iteration coordinate per iterLevels index
	canonCoords []int // scratch: canonical intra-node coordinates

	claims         map[nodeObject]int // rank claims per leaf
	capCounts      map[nodeObject]int // rank counts per capped ancestor
	nodeCount      []int              // ranks per node (slot and machine caps)
	skippedOversub bool               // a leaf was skipped due to the oversubscribe rule

	placements []Placement
	sweeps     int
	sweepEnds  []int
}

// nodeObject names one resource of one node. A snapshot shares a topology
// among the nodes whose trees are interchangeable, so an object pointer
// alone would name the same resource on every one of them.
type nodeObject struct {
	node int
	obj  *hw.Object
}

func (m *Mapper) newRefRun(np int) (*refRun, error) {
	if np <= 0 {
		return nil, fmt.Errorf("core: non-positive process count %d", np)
	}
	if err := checkLayout(m.Layout); err != nil {
		return nil, err
	}
	intra := m.Layout.IntraNode()
	topos := make([]*hw.Topology, m.Cluster.NumNodes())
	for i, n := range m.Cluster.Nodes {
		topos[i] = n.Topo
	}
	r := &refRun{
		m:          m,
		np:         np,
		pes:        m.Opts.pes(),
		iterLevels: m.Layout.Levels(),
		mtree:      NewMaximalTree(topos, intra),
		claims:     map[nodeObject]int{},
		capCounts:  map[nodeObject]int{},
		nodeCount:  make([]int, m.Cluster.NumNodes()),
		machineIdx: -1,
	}
	r.coords = make([]int, len(r.iterLevels))
	r.canonCoords = make([]int, len(intra))
	r.widths = make([]int, len(r.iterLevels))
	r.canonPos = make([]int, len(r.iterLevels))
	r.orders = make([][]int, len(r.iterLevels))
	for i, l := range r.iterLevels {
		if l == hw.LevelMachine {
			r.machineIdx = i
			r.canonPos[i] = -1
			r.widths[i] = m.Cluster.NumNodes()
		} else {
			for p, il := range intra {
				if il == l {
					r.canonPos[i] = p
				}
			}
			r.widths[i] = r.mtree.Width(r.canonPos[i])
		}
		perm, err := validOrder(m.Opts.orderFor(l), r.widths[i])
		if err != nil {
			return nil, fmt.Errorf("%v (level %s)", err, l)
		}
		r.orders[i] = perm
	}
	for _, w := range r.widths {
		if w == 0 {
			return nil, stallError(m.Layout, np, 0, false)
		}
	}
	return r, nil
}

// tryMap is the reference placement attempt at the current coordinates:
// identical skip rules to the optimized engine (nonexistent → unavailable
// → slot cap → resource caps → oversubscribe), expressed over (node,
// hardware object) keys and fresh topology walks.
func (r *refRun) tryMap() {
	node := 0
	if r.machineIdx >= 0 {
		node = r.coords[r.machineIdx]
	}
	for i, c := range r.coords {
		if p := r.canonPos[i]; p >= 0 {
			r.canonCoords[p] = c
		}
	}
	leaf := r.mtree.Lookup(node, r.canonCoords)
	if leaf == nil {
		return // resource does not exist on this node
	}
	ups := leaf.UsablePUs()
	if len(ups) == 0 {
		return // resource unavailable (off-lined / disallowed)
	}
	// Scheduler slot caps (Open MPI hostfile semantics).
	if r.m.Opts.RespectSlots {
		limit := -1
		if !r.m.Opts.Oversubscribe {
			limit = r.m.Cluster.Node(node).EffectiveSlots()
		} else if hard := r.m.Cluster.Node(node).MaxSlots; hard > 0 {
			limit = hard
		}
		if limit >= 0 && r.nodeCount[node] >= limit {
			r.skippedOversub = true
			return
		}
	}
	// ALPS-style per-resource rank caps, checked before the
	// oversubscription rule: a capped resource is unmappable regardless.
	var capped []nodeObject
	for _, l := range r.iterLevels {
		limit := r.m.Opts.capFor(l)
		if limit <= 0 {
			continue
		}
		if l == hw.LevelMachine {
			if r.nodeCount[node] >= limit {
				return
			}
			continue
		}
		anc := leaf.Ancestor(l)
		if anc == nil {
			continue
		}
		obj := nodeObject{node, anc}
		if r.capCounts[obj] >= limit {
			return
		}
		capped = append(capped, obj)
	}
	claim := nodeObject{node, leaf}
	prior := r.claims[claim]
	base := prior * r.pes
	oversub := base+r.pes > len(ups)
	if oversub && !r.m.Opts.Oversubscribe {
		r.skippedOversub = true
		return
	}

	pus := make([]int, r.pes)
	for j := 0; j < r.pes; j++ {
		pus[j] = ups[(base+j)%len(ups)].OS
	}
	r.placements = append(r.placements, Placement{
		Rank:           len(r.placements),
		Node:           node,
		NodeName:       r.m.Cluster.Node(node).Name,
		Leaf:           leaf,
		PUs:            pus,
		Oversubscribed: oversub,
	})
	r.claims[claim] = prior + 1
	r.nodeCount[node]++
	for _, obj := range capped {
		r.capCounts[obj]++
	}
}

// MapReference executes the same mapping semantics as Map but through the
// naive reference machinery above, with an explicit iterative odometer in
// place of the paper's recursive loop nest. It exists to cross-validate
// the optimized engine (experiment E2): for any cluster, layout, options,
// and rank count, Map and MapReference must produce identical plans.
func (m *Mapper) MapReference(np int) (*Map, error) {
	r, err := m.newRefRun(np)
	if err != nil {
		return nil, err
	}
	k := len(r.iterLevels)
	for len(r.placements) < np {
		before := len(r.placements)
		if r.sweeps > 0 {
			r.sweepEnds = append(r.sweepEnds, before)
		}
		// One full odometer sweep: positions pos[i] index into the
		// visiting permutation of level i; level 0 varies fastest.
		pos := make([]int, k)
		for {
			for i := 0; i < k; i++ {
				r.coords[i] = r.orders[i][pos[i]]
			}
			r.tryMap()
			if len(r.placements) == np {
				break
			}
			// Increment with carry, innermost first.
			i := 0
			for ; i < k; i++ {
				pos[i]++
				if pos[i] < r.widths[i] {
					break
				}
				pos[i] = 0
			}
			if i == k {
				break // full sweep complete
			}
		}
		r.sweeps++
		if len(r.placements) == before {
			return nil, stallError(m.Layout, np, len(r.placements), r.skippedOversub)
		}
	}
	return &Map{Layout: m.Layout, Placements: r.placements, Sweeps: r.sweeps, SweepEnds: r.sweepEnds}, nil
}
