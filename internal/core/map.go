package core

import (
	"fmt"
	"sort"
	"strings"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// Placement records where one rank was mapped. It holds the assignment
// only: the rank's layout coordinates are derived on demand by
// Map.Coords.
type Placement struct {
	// Rank is the process rank (0-based).
	Rank int
	// Node is the cluster node index; NodeName its host name.
	Node     int
	NodeName string
	// Leaf is the hardware object the rank was mapped onto, an object of
	// Node's topology: the deepest layout level's object (e.g. a core for
	// "scbn", a PU for "scbnh").
	Leaf *hw.Object
	// PUs are the OS indices of the processing units claimed by the rank
	// (PEsPerProc of them), within Leaf.
	PUs []int
	// Oversubscribed reports that claiming the PUs exceeded Leaf's usable
	// capacity, i.e. some PU is shared with another rank.
	Oversubscribed bool
}

// PU returns the rank's representative (first claimed) processing unit.
func (p *Placement) PU() int {
	if len(p.PUs) == 0 {
		return -1
	}
	return p.PUs[0]
}

// Map is a complete mapping plan for a job: the output of the LAMA
// (or of a baseline mapper converted to the same form).
type Map struct {
	// Layout is the process layout that produced the map (zero value for
	// baseline mappers). Coords derives the ranks' iteration coordinates
	// from it.
	Layout Layout
	// Placements holds one entry per rank, ordered by rank.
	Placements []Placement
	// Sweeps is the number of full resource-space traversals used; a value
	// greater than 1 means the job wrapped around the available resources.
	Sweeps int
	// SweepEnds holds, for every sweep but the last, the rank count when
	// it ended, ascending: the sweep boundaries Prefix needs. It is nil
	// for a single-sweep map.
	SweepEnds []int
}

// NumRanks returns the number of placed ranks.
func (m *Map) NumRanks() int { return len(m.Placements) }

// Prefix returns the map of the first np ranks, 0 < np <= NumRanks(),
// sharing m's storage. LAMA reads np only to decide when to stop (paper
// Fig. 1), so for a map the Mapper produced this is exactly what the
// same mapper returns when asked for np ranks: the sweeps that began
// after rank np-1 was placed are dropped from Sweeps and SweepEnds.
func (m *Map) Prefix(np int) Map {
	k := sort.SearchInts(m.SweepEnds, np) // sweeps that ended before rank np-1
	p := Map{
		Layout:     m.Layout,
		Placements: m.Placements[:np:np],
		Sweeps:     m.Sweeps - (len(m.SweepEnds) - k),
	}
	if k > 0 {
		p.SweepEnds = m.SweepEnds[:k:k]
	}
	return p
}

// Oversubscribed reports whether any rank shares a PU with another.
func (m *Map) Oversubscribed() bool {
	for i := range m.Placements {
		if m.Placements[i].Oversubscribed {
			return true
		}
	}
	return false
}

// RanksByNode returns rank lists keyed by node index — the "which processes
// launch on each node" product of the mapping step (paper §III-A).
func (m *Map) RanksByNode() map[int][]int {
	out := map[int][]int{}
	for i := range m.Placements {
		p := &m.Placements[i]
		out[p.Node] = append(out[p.Node], p.Rank)
	}
	return out
}

// Validate checks internal consistency of the map against a cluster:
// ranks dense and ordered, nodes in range, claimed PUs usable on their
// node and beneath the rank's leaf (so a leaf belongs to its node's
// topology), and the oversubscription flags consistent with actual PU
// sharing.
func (m *Map) Validate(c *cluster.Cluster) error {
	type key struct{ node, pu int }
	claims := map[key]int{}
	for i := range m.Placements {
		p := &m.Placements[i]
		if p.Rank != i {
			return fmt.Errorf("core: placement %d has rank %d", i, p.Rank)
		}
		node := c.Node(p.Node)
		if node == nil {
			return fmt.Errorf("core: rank %d on unknown node %d", p.Rank, p.Node)
		}
		if len(p.PUs) == 0 {
			return fmt.Errorf("core: rank %d claims no PUs", p.Rank)
		}
		for _, pu := range p.PUs {
			obj := node.Topo.PUByOS(pu)
			if obj == nil {
				return fmt.Errorf("core: rank %d claims missing PU %d on %s", p.Rank, pu, node.Name)
			}
			if !obj.Usable() {
				return fmt.Errorf("core: rank %d claims unusable PU %d on %s", p.Rank, pu, node.Name)
			}
			if p.Leaf != nil && obj.Ancestor(p.Leaf.Level) != p.Leaf {
				return fmt.Errorf("core: rank %d claims PU %d on %s outside its leaf %s", p.Rank, pu, node.Name, p.Leaf)
			}
			claims[key{p.Node, pu}]++
		}
	}
	shared := map[int]bool{} // node -> has shared PU
	for k, n := range claims {
		if n > 1 {
			shared[k.node] = true
		}
	}
	anyFlag := false
	for i := range m.Placements {
		if m.Placements[i].Oversubscribed {
			anyFlag = true
		}
	}
	anyShared := len(shared) > 0
	if anyShared != anyFlag {
		return fmt.Errorf("core: oversubscription flag %v but PU sharing %v", anyFlag, anyShared)
	}
	return nil
}

// Render prints the map as an aligned rank table, one line per rank.
func (m *Map) Render() string {
	var sb strings.Builder
	layoutCols := m.Layout.Levels()
	fmt.Fprintf(&sb, "%-5s %-10s", "rank", "node")
	for _, l := range layoutCols {
		if l == hw.LevelMachine {
			continue
		}
		fmt.Fprintf(&sb, " %-3s", l.Abbrev())
	}
	fmt.Fprintf(&sb, " %-10s %s\n", "pus", "flags")
	for i := range m.Placements {
		p := &m.Placements[i]
		fmt.Fprintf(&sb, "%-5d %-10s", p.Rank, p.NodeName)
		cv := m.Coords(i)
		for _, l := range layoutCols {
			if l == hw.LevelMachine {
				continue
			}
			fmt.Fprintf(&sb, " %-3d", cv[l])
		}
		pus := make([]string, len(p.PUs))
		for j, pu := range p.PUs {
			pus[j] = fmt.Sprintf("%d", pu)
		}
		flags := ""
		if p.Oversubscribed {
			flags = "OVERSUB"
		}
		fmt.Fprintf(&sb, " %-10s %s\n", strings.Join(pus, ","), flags)
	}
	return sb.String()
}

// RenderByNode prints, per node and per socket, the ranks on each PU —
// the presentation style of the paper's Figure 2.
func (m *Map) RenderByNode(c *cluster.Cluster) string {
	var sb strings.Builder
	perPU := map[int]map[int][]int{} // node -> pu OS -> ranks
	for i := range m.Placements {
		p := &m.Placements[i]
		if perPU[p.Node] == nil {
			perPU[p.Node] = map[int][]int{}
		}
		for _, pu := range p.PUs {
			perPU[p.Node][pu] = append(perPU[p.Node][pu], p.Rank)
		}
	}
	for ni, node := range c.Nodes {
		fmt.Fprintf(&sb, "%s:\n", node.Name)
		for _, sock := range node.Topo.Objects(hw.LevelSocket) {
			fmt.Fprintf(&sb, "  socket %d:\n", sock.Logical)
			for _, core := range descendantsAt(sock, hw.LevelCore) {
				fmt.Fprintf(&sb, "    core %d:", core.Logical)
				for _, pu := range descendantsAt(core, hw.LevelPU) {
					ranks := perPU[ni][pu.OS]
					sort.Ints(ranks)
					strs := make([]string, len(ranks))
					for j, r := range ranks {
						strs[j] = fmt.Sprintf("%d", r)
					}
					body := strings.Join(strs, "+")
					if body == "" {
						body = "-"
					}
					fmt.Fprintf(&sb, " [h%d: %s]", pu.Rank, body)
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}
