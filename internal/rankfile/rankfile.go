// Package rankfile implements the Level 4 interface of the paper's §V: a
// file format describing fully irregular per-rank placements, modeled on
// Open MPI's rankfile syntax.
//
// Each non-empty, non-comment line binds one rank:
//
//	rank <N>=<host> slot=<spec>
//
// where <spec> is one of:
//
//	"*"              all usable PUs of the host
//	<cpuset>         explicit PU OS indices (hwloc list syntax), e.g. 0,2-3
//	<s>:<cores>      socket s, core list within the socket, e.g. 1:0-2
//
// Lines starting with '#' are comments. Every rank from 0 to the highest
// mentioned must appear exactly once.
package rankfile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// Entry is one parsed rankfile line.
type Entry struct {
	// Rank is the process rank.
	Rank int
	// Host is the node name the rank is pinned to.
	Host string
	// Socket is the socket logical index, or -1 when the slot spec is a
	// raw cpuset or "*".
	Socket int
	// Cores lists core logical indices within the socket (when Socket >= 0).
	Cores []int
	// CPUs is the raw PU set (when the slot spec was a cpuset); nil
	// otherwise.
	CPUs *hw.CPUSet
	// Any is true for "slot=*".
	Any bool
}

// File is a parsed rankfile.
type File struct {
	Entries []Entry // sorted by rank, dense from 0
}

// Parse reads rankfile text.
func Parse(text string) (*File, error) {
	f := &File{}
	seen := map[int]bool{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("rankfile:%d: %v", lineNo+1, err)
		}
		if seen[entry.Rank] {
			return nil, fmt.Errorf("rankfile:%d: duplicate rank %d", lineNo+1, entry.Rank)
		}
		seen[entry.Rank] = true
		f.Entries = append(f.Entries, entry)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("rankfile: no entries")
	}
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Rank < f.Entries[j].Rank })
	for i, e := range f.Entries {
		if e.Rank != i {
			return nil, fmt.Errorf("rankfile: ranks not dense: missing rank %d", i)
		}
	}
	return f, nil
}

func parseLine(line string) (Entry, error) {
	var e Entry
	e.Socket = -1
	rest, ok := strings.CutPrefix(line, "rank")
	if !ok {
		return e, fmt.Errorf("line must start with \"rank\": %q", line)
	}
	rankPart, slotPart, ok := strings.Cut(rest, "slot=")
	if !ok {
		return e, fmt.Errorf("missing slot=: %q", line)
	}
	rankStr, host, ok := strings.Cut(strings.TrimSpace(rankPart), "=")
	if !ok {
		return e, fmt.Errorf("missing '=' after rank number: %q", line)
	}
	rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
	if err != nil || rank < 0 {
		return e, fmt.Errorf("bad rank %q", rankStr)
	}
	e.Rank = rank
	e.Host = strings.TrimSpace(host)
	if e.Host == "" {
		return e, fmt.Errorf("empty host")
	}
	slot := strings.TrimSpace(slotPart)
	switch {
	case slot == "*":
		e.Any = true
	case strings.Contains(slot, ":"):
		sockStr, coreStr, _ := strings.Cut(slot, ":")
		sock, err := strconv.Atoi(strings.TrimSpace(sockStr))
		if err != nil || sock < 0 {
			return e, fmt.Errorf("bad socket %q", sockStr)
		}
		cores, err := hw.ParseCPUSet(coreStr)
		if err != nil || cores.Empty() {
			return e, fmt.Errorf("bad core list %q", coreStr)
		}
		e.Socket = sock
		e.Cores = cores.Members()
	default:
		set, err := hw.ParseCPUSet(slot)
		if err != nil || set.Empty() {
			return e, fmt.Errorf("bad slot cpuset %q", slot)
		}
		e.CPUs = set
	}
	return e, nil
}

// Apply resolves the rankfile against a cluster, producing a mapping plan
// in the same form the LAMA emits so that binding and launch treat regular
// and irregular placements identically.
func Apply(f *File, c *cluster.Cluster) (*core.Map, error) {
	m := &core.Map{Sweeps: 1}
	type key struct{ node, pu int }
	claims := map[key]int{}
	for _, e := range f.Entries {
		node, nodeIdx := c.NodeByName(e.Host)
		if node == nil {
			return nil, fmt.Errorf("rankfile: rank %d: unknown host %q", e.Rank, e.Host)
		}
		var pus []int
		var leaf *hw.Object
		switch {
		case e.Any:
			for _, pu := range node.Topo.UsablePUs() {
				pus = append(pus, pu.OS)
			}
			leaf = node.Topo.Root
		case e.CPUs != nil:
			for _, os := range e.CPUs.Members() {
				pu := node.Topo.PUByOS(os)
				if pu == nil {
					return nil, fmt.Errorf("rankfile: rank %d: no PU %d on %s", e.Rank, os, e.Host)
				}
				if !pu.Usable() {
					return nil, fmt.Errorf("rankfile: rank %d: PU %d on %s is unavailable", e.Rank, os, e.Host)
				}
				pus = append(pus, os)
				leaf = pu
			}
			if len(pus) > 1 {
				leaf = nil // multiple PUs: no single leaf object
			}
		default:
			sock := node.Topo.ObjectAt(hw.LevelSocket, e.Socket)
			if sock == nil {
				return nil, fmt.Errorf("rankfile: rank %d: no socket %d on %s", e.Rank, e.Socket, e.Host)
			}
			coresInSocket := socketCores(sock)
			for _, ci := range e.Cores {
				if ci < 0 || ci >= len(coresInSocket) {
					return nil, fmt.Errorf("rankfile: rank %d: no core %d in socket %d on %s",
						e.Rank, ci, e.Socket, e.Host)
				}
				core := coresInSocket[ci]
				ups := node.Topo.UsableUnder(core)
				if len(ups) == 0 {
					return nil, fmt.Errorf("rankfile: rank %d: core %d in socket %d on %s is unavailable",
						e.Rank, ci, e.Socket, e.Host)
				}
				for _, pu := range ups {
					pus = append(pus, pu.OS)
				}
				leaf = core
			}
			if len(e.Cores) > 1 {
				leaf = sock
			}
		}
		if len(pus) == 0 {
			return nil, fmt.Errorf("rankfile: rank %d resolves to no usable PUs", e.Rank)
		}
		oversub := false
		for _, pu := range pus {
			claims[key{nodeIdx, pu}]++
			if claims[key{nodeIdx, pu}] > 1 {
				oversub = true
			}
		}
		m.Placements = append(m.Placements, core.Placement{
			Rank:           e.Rank,
			Node:           nodeIdx,
			NodeName:       node.Name,
			Leaf:           leaf,
			PUs:            pus,
			Oversubscribed: oversub,
		})
	}
	// An earlier rank may only become "shared" when a later rank claims
	// the same PU; recompute flags from final claim counts.
	for i := range m.Placements {
		p := &m.Placements[i]
		p.Oversubscribed = false
		for _, pu := range p.PUs {
			if claims[key{p.Node, pu}] > 1 {
				p.Oversubscribed = true
			}
		}
	}
	return m, nil
}

// socketCores returns the cores under a socket in logical order within the
// socket.
func socketCores(sock *hw.Object) []*hw.Object {
	var out []*hw.Object
	var walk func(o *hw.Object)
	walk = func(o *hw.Object) {
		if o.Level == hw.LevelCore {
			out = append(out, o)
			return
		}
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(sock)
	return out
}

// Format renders entries back to rankfile text.
func Format(f *File) string {
	var sb strings.Builder
	for _, e := range f.Entries {
		fmt.Fprintf(&sb, "rank %d=%s slot=", e.Rank, e.Host)
		switch {
		case e.Any:
			sb.WriteString("*")
		case e.CPUs != nil:
			sb.WriteString(e.CPUs.String())
		default:
			cores := hw.NewCPUSet(e.Cores...)
			fmt.Fprintf(&sb, "%d:%s", e.Socket, cores)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FromMap converts any mapping plan into an equivalent rankfile, letting a
// regular LAMA-produced pattern be frozen into the irregular Level 4 form
// (e.g. to reproduce a tuned placement on a system without the mapper).
// Each rank's claimed PUs become an explicit cpuset slot.
func FromMap(m *core.Map) (*File, error) {
	if m == nil || len(m.Placements) == 0 {
		return nil, fmt.Errorf("rankfile: empty map")
	}
	f := &File{}
	for i := range m.Placements {
		p := &m.Placements[i]
		if p.NodeName == "" {
			return nil, fmt.Errorf("rankfile: rank %d has no node name", p.Rank)
		}
		if len(p.PUs) == 0 {
			return nil, fmt.Errorf("rankfile: rank %d claims no PUs", p.Rank)
		}
		f.Entries = append(f.Entries, Entry{
			Rank:   p.Rank,
			Host:   p.NodeName,
			Socket: -1,
			CPUs:   hw.NewCPUSet(p.PUs...),
		})
	}
	return f, nil
}
