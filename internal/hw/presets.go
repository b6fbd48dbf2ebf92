package hw

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Preset topologies modeled loosely on real server nodes of the paper's era
// (2011). Widths are per DESIGN.md §6 containment order; none of these is a
// byte-exact hwloc dump — they are shape-faithful simulation inputs.
var presets = map[string]Spec{
	// Two quad-core Nehalem-EP sockets with SMT-2; one NUMA domain and one
	// shared L3 per socket; private L2/L1 per core.
	"nehalem-ep": {Boards: 1, Sockets: 2, NUMAs: 1, L3s: 1, L2s: 4, L1s: 1, Cores: 1, PUs: 2, ThreadMajorOS: true},
	// Four-socket AMD Magny-Cours: each socket holds two NUMA dies of six
	// cores sharing an L3; no SMT.
	"magny-cours": {Boards: 1, Sockets: 4, NUMAs: 2, L3s: 1, L2s: 6, L1s: 1, Cores: 1, PUs: 1},
	// Dual-socket POWER7-like: 8 cores per socket, SMT-4, L3 per core pair.
	"power7": {Boards: 1, Sockets: 2, NUMAs: 1, L3s: 4, L2s: 2, L1s: 1, Cores: 1, PUs: 4},
	// BlueGene/P-like compute node: one quad-core chip, no SMT.
	"bgp-node": {Boards: 1, Sockets: 1, NUMAs: 1, L3s: 1, L2s: 4, L1s: 1, Cores: 1, PUs: 1},
	// Two-board SMP with two small sockets per board (exercises "b").
	"dual-board": {Boards: 2, Sockets: 2, NUMAs: 1, L3s: 1, L2s: 2, L1s: 1, Cores: 1, PUs: 2},
	// The reconstructed Figure 2 node: 2 sockets x 3 cores x 2 hwthreads.
	"fig2": {Boards: 1, Sockets: 2, NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: 3, PUs: 2},
	// A Figure 2 variant with 4 sockets x 3 cores, single-threaded.
	"fig2-wide": {Boards: 1, Sockets: 4, NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: 3, PUs: 1},
}

// Preset returns the named preset spec. The boolean is false if the name is
// unknown.
func Preset(name string) (Spec, bool) {
	sp, ok := presets[name]
	return sp, ok
}

// PresetNames returns the sorted list of preset names.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseSpec parses either a preset name ("nehalem-ep"), the full colon form
// "b:s:N:L3:L2:L1:c:h", or the short colon form "s:c:h" (boards, NUMA and
// caches default to width 1).
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if sp, ok := Preset(text); ok {
		return sp, nil
	}
	parts := strings.Split(text, ":")
	nums := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return Spec{}, fmt.Errorf("hw: bad spec %q: element %q", text, p)
		}
		nums[i] = v
	}
	var sp Spec
	switch len(nums) {
	case 3: // s:c:h
		sp = Spec{Boards: 1, Sockets: nums[0], NUMAs: 1, L3s: 1, L2s: 1, L1s: 1, Cores: nums[1], PUs: nums[2]}
	case 8: // b:s:N:L3:L2:L1:c:h
		sp = Spec{
			Boards: nums[0], Sockets: nums[1], NUMAs: nums[2], L3s: nums[3],
			L2s: nums[4], L1s: nums[5], Cores: nums[6], PUs: nums[7],
		}
	default:
		return Spec{}, fmt.Errorf("hw: bad spec %q: want preset name, s:c:h, or 8 colon-separated widths", text)
	}
	// Validate here, not just at tree-build time: parsed specs come from
	// untrusted surfaces (hostfiles, CLI flags) and hw.New panics on
	// invalid input.
	if err := sp.Validate(); err != nil {
		return Spec{}, fmt.Errorf("hw: bad spec %q: %v", text, err)
	}
	return sp, nil
}
