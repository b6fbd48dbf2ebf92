package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"lama/internal/hw"
)

// ParseHostfile builds a cluster from an Open MPI-style hostfile extended
// with topology specs. Each non-empty, non-comment line declares one node:
//
//	<name> [slots=<n>] [maxslots=<n>] [spec=<spec>] [allowed=<cpuset>]
//
// where <spec> is anything hw.ParseSpec accepts (preset name, "s:c:h", or
// the 8-width colon form) and <cpuset> is hwloc list syntax restricting the
// node's usable PUs. Lines starting with '#' are comments. A missing spec
// defaults to defSpec.
//
// Slot counts are validated against the node's hardware by
// Node.CheckSlots: slots (and maxslots, the Open MPI "max_slots" hard cap)
// may not be negative or exceed the node's usable PU count, and maxslots
// may not be smaller than slots — such hostfiles describe impossible
// placements and are rejected with a clear error instead of silently
// producing unmappable nodes.
//
// Example:
//
//	# two big nodes, one restricted old node
//	node0 slots=8 spec=nehalem-ep
//	node1 slots=8 spec=nehalem-ep
//	old0  slots=2 spec=1:4:1 allowed=0-1
func ParseHostfile(text string, defSpec hw.Spec) (*Cluster, error) {
	c := &Cluster{}
	seen := map[string]bool{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		if seen[name] {
			return nil, fmt.Errorf("hostfile:%d: duplicate node %q", lineNo+1, name)
		}
		seen[name] = true
		node := &Node{Name: name}
		sp := defSpec
		var allowed *hw.CPUSet
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("hostfile:%d: bad field %q", lineNo+1, f)
			}
			switch key {
			case "slots":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("hostfile:%d: bad slots %q", lineNo+1, val)
				}
				node.Slots = n
			case "maxslots":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("hostfile:%d: bad maxslots %q", lineNo+1, val)
				}
				node.MaxSlots = n
			case "spec":
				parsed, err := hw.ParseSpec(val)
				if err != nil {
					return nil, fmt.Errorf("hostfile:%d: %v", lineNo+1, err)
				}
				sp = parsed
			case "allowed":
				set, err := hw.ParseCPUSet(val)
				if err != nil {
					return nil, fmt.Errorf("hostfile:%d: %v", lineNo+1, err)
				}
				allowed = set
			default:
				return nil, fmt.Errorf("hostfile:%d: unknown field %q", lineNo+1, key)
			}
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("hostfile:%d: %v", lineNo+1, err)
		}
		node.Topo = hw.New(sp)
		if allowed != nil {
			node.Topo.Restrict(allowed)
		}
		if err := node.CheckSlots(); err != nil {
			return nil, fmt.Errorf("hostfile:%d: %v", lineNo+1, err)
		}
		c.Nodes = append(c.Nodes, node)
	}
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("hostfile: no nodes declared")
	}
	return c, nil
}

// FormatHostfile renders a cluster as a hostfile. Irregular topologies are
// approximated by their level counts; round-tripping is exact only for
// Spec-built nodes, which is all the generator produces.
func FormatHostfile(c *Cluster) string {
	var sb strings.Builder
	for _, n := range c.Nodes {
		fmt.Fprintf(&sb, "%s slots=%d", n.Name, n.Slots)
		if n.MaxSlots > 0 {
			fmt.Fprintf(&sb, " maxslots=%d", n.MaxSlots)
		}
		fmt.Fprintf(&sb, " spec=%s", specOf(n.Topo))
		if n.Topo.NumUsablePUs() != n.Topo.NumPUs() {
			fmt.Fprintf(&sb, " allowed=%s", n.Topo.AllowedSet())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// specOf reconstructs the per-level widths of a regular topology.
func specOf(t *hw.Topology) string {
	div := func(a, b int) int {
		if b == 0 {
			return 1
		}
		return a / b
	}
	widths := make([]string, 0, hw.NumLevels-1)
	prev := 1
	for _, l := range hw.Levels[1:] {
		n := t.NumObjects(l)
		widths = append(widths, strconv.Itoa(div(n, prev)))
		prev = n
	}
	return strings.Join(widths, ":")
}
