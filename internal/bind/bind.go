// Package bind implements the binding step of process placement (paper
// §III-B): given a mapping plan, compute the processor restriction each
// launched process will run under. Three policies are supported, matching
// the paper's taxonomy: no restrictions, limited-set restrictions (a common
// subset per node), and specific-resource restrictions (a unique resource
// per process, yielding a binding width).
package bind

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// Policy selects how processes are restricted to processors.
type Policy int

const (
	// None leaves the OS scheduler full autonomy (paper §III-B case 1).
	None Policy = iota
	// Limited restricts every process of the job on a node to one common
	// subset of the node's processors (case 2).
	Limited
	// Specific assigns each process its own resource at a chosen level
	// (case 3) — the only policy that prevents inter-processor migration.
	Specific
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case None:
		return "none"
	case Limited:
		return "limited"
	case Specific:
		return "specific"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Binding is the processor restriction of one rank.
type Binding struct {
	// Rank is the process rank.
	Rank int
	// Node is the cluster node index the rank runs on.
	Node int
	// CPUs is the set of PU OS indices the process may run on; nil means
	// unrestricted (Policy None).
	CPUs *hw.CPUSet
	// Width is the binding width: the number of smallest processing units
	// the process is bound to (paper §III-B). Zero means unbound.
	Width int
}

// Plan is the binding plan for a whole job.
type Plan struct {
	// Policy is the binding policy used.
	Policy Policy
	// Level is the resource level bound to (meaningful for Specific).
	Level hw.Level
	// Bindings has one entry per rank, ordered by rank.
	Bindings []Binding
}

// Compute derives a binding plan from a map. For Policy Specific, level
// selects the resource granularity: a rank is bound to the PU set of its
// mapped leaf's ancestor at that level, or to its claimed PUs when level
// is deeper than the leaf (e.g. binding to hardware threads after mapping
// to cores). For Limited, level is ignored and each rank is bound to the
// union of the job's claimed PUs on its node. For None, no restriction is
// produced. Specific is ComputeWidth with a count of 1.
func Compute(c *cluster.Cluster, m *core.Map, policy Policy, level hw.Level) (*Plan, error) {
	if m == nil || m.NumRanks() == 0 {
		return nil, fmt.Errorf("bind: empty map")
	}
	plan := &Plan{Policy: policy, Level: level}
	switch policy {
	case None:
		for i := range m.Placements {
			p := &m.Placements[i]
			plan.Bindings = append(plan.Bindings, Binding{Rank: p.Rank, Node: p.Node})
		}
	case Limited:
		perNode := map[int]*hw.CPUSet{}
		for i := range m.Placements {
			p := &m.Placements[i]
			if perNode[p.Node] == nil {
				perNode[p.Node] = hw.NewCPUSet()
			}
			for _, pu := range p.PUs {
				perNode[p.Node].Set(pu)
			}
		}
		for i := range m.Placements {
			p := &m.Placements[i]
			set := perNode[p.Node]
			plan.Bindings = append(plan.Bindings, Binding{
				Rank: p.Rank, Node: p.Node, CPUs: set, Width: set.Count(),
			})
		}
	case Specific:
		return ComputeWidth(c, m, level, 1)
	default:
		return nil, fmt.Errorf("bind: unknown policy %v", policy)
	}
	return plan, nil
}

// specificSet computes the Specific-policy CPU set for one placement, a
// fresh set the caller may extend.
func specificSet(c *cluster.Cluster, p *core.Placement, level hw.Level) (*hw.CPUSet, error) {
	node := c.Node(p.Node)
	if node == nil {
		return nil, fmt.Errorf("bind: rank %d on unknown node %d", p.Rank, p.Node)
	}
	leafLevel := hw.LevelPU
	if p.Leaf != nil {
		leafLevel = p.Leaf.Level
	}
	if level > leafLevel || p.Leaf == nil {
		// Binding finer than (or without) the mapped leaf: bind to the
		// claimed PUs themselves. This is why the map addresses ranks at
		// PU resolution (paper §III-A).
		set := hw.NewCPUSet(p.PUs...)
		if set.Empty() {
			return nil, fmt.Errorf("bind: rank %d claims no PUs", p.Rank)
		}
		return set, nil
	}
	anc := p.Leaf.Ancestor(level)
	if anc == nil {
		return nil, fmt.Errorf("bind: rank %d has no ancestor at %s", p.Rank, level)
	}
	set := &hw.CPUSet{}
	set.SetPUs(node.Topo.UsableUnder(anc))
	if set.Empty() {
		return nil, fmt.Errorf("bind: rank %d binding target %v has no usable PUs", p.Rank, anc)
	}
	return set, nil
}

// Check verifies that every binding is satisfiable on its node: non-empty
// and fully usable. Policy None bindings are always satisfiable.
func (pl *Plan) Check(c *cluster.Cluster) error {
	for i := range pl.Bindings {
		b := &pl.Bindings[i]
		if b.CPUs == nil {
			continue
		}
		node := c.Node(b.Node)
		if node == nil {
			return fmt.Errorf("bind: rank %d on unknown node %d", b.Rank, b.Node)
		}
		if !b.CPUs.IsSubset(node.Topo.AllowedSet()) {
			return fmt.Errorf("bind: rank %d bound outside allowed set (%s vs %s)",
				b.Rank, b.CPUs, node.Topo.AllowedSet())
		}
	}
	return nil
}

// ComputeWidth computes a Specific-style plan where each rank is bound to
// `count` consecutive objects at the given level, starting at its own —
// the "<count><level>" binding syntax of the paper's Open MPI
// implementation (rmaps_lama_bind, e.g. "2c" = two cores). count must be
// at least 1; siblings are taken within the parent and clamped at the
// last sibling.
func ComputeWidth(c *cluster.Cluster, m *core.Map, level hw.Level, count int) (*Plan, error) {
	if count < 1 {
		return nil, fmt.Errorf("bind: non-positive width count %d", count)
	}
	if !level.Valid() {
		return nil, fmt.Errorf("bind: invalid binding level %d", int(level))
	}
	if m == nil || m.NumRanks() == 0 {
		return nil, fmt.Errorf("bind: empty map")
	}
	plan := &Plan{Policy: Specific, Level: level}
	for i := range m.Placements {
		p := &m.Placements[i]
		set, err := specificSet(c, p, level)
		if err != nil {
			return nil, err
		}
		if count > 1 && p.Leaf != nil {
			if anchor := p.Leaf.Ancestor(level); anchor != nil && anchor.Parent != nil {
				topo, sibs := c.Node(p.Node).Topo, anchor.Parent.Children
				for k := 1; k < count && anchor.Rank+k < len(sibs); k++ {
					set.SetPUs(topo.UsableUnder(sibs[anchor.Rank+k]))
				}
			}
		}
		plan.Bindings = append(plan.Bindings, Binding{
			Rank: p.Rank, Node: p.Node, CPUs: set, Width: set.Count(),
		})
	}
	return plan, nil
}

// ParseWidthSpec parses a "<count><level>" binding spec such as "1c",
// "2s", or "4h" (Table I abbreviations; count defaults to 1 when absent,
// e.g. "c").
func ParseWidthSpec(text string) (hw.Level, int, error) {
	i := 0
	for i < len(text) && text[i] >= '0' && text[i] <= '9' {
		i++
	}
	count := 1
	if i > 0 {
		n := 0
		for _, d := range text[:i] {
			n = n*10 + int(d-'0')
		}
		count = n
	}
	level, ok := hw.LevelByAbbrev(text[i:])
	if !ok || level == hw.LevelMachine {
		return 0, 0, fmt.Errorf("bind: bad width spec %q (want e.g. \"1c\", \"2s\")", text)
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("bind: bad width count in %q", text)
	}
	return level, count, nil
}
