// Package core implements the Locality-Aware Mapping Algorithm (LAMA), the
// paper's primary contribution: planning the placement of the ranks of a
// parallel job onto the processing units of a cluster according to a
// user-specified process layout.
//
// A process layout is an ordered sequence of resource-level letters
// (paper Table I): n (node), b (board), s (socket), c (core), h (hardware
// thread), and the optional locality levels N (NUMA), L1, L2, L3 (caches).
// The left-most letter is the innermost (fastest-varying) loop of the
// mapping iteration; the right-most is the outermost. Levels present in
// the hardware but absent from the layout are pruned from the maximal tree
// used for iteration (paper §IV-B).
package core

import (
	"fmt"
	"sort"
	"strings"

	"lama/internal/hw"
)

// Layout is a parsed process layout: the iteration order of resource
// levels, innermost first.
type Layout struct {
	levels []hw.Level
}

// ParseLayout parses a process layout string such as "scbnh" or "sNbL2cnh".
// Tokens are the Table I abbreviations; "L1", "L2", "L3" are two-character
// tokens; all tokens are case-sensitive ("n" node vs "N" NUMA). Each level
// may appear at most once and at least one level is required.
func ParseLayout(text string) (Layout, error) {
	var levels []hw.Level
	seen := map[hw.Level]bool{}
	i := 0
	for i < len(text) {
		tok := string(text[i])
		if text[i] == 'L' {
			if i+1 >= len(text) {
				return Layout{}, fmt.Errorf("core: layout %q: dangling 'L'", text)
			}
			tok = text[i : i+2]
			i++
		}
		i++
		l, ok := hw.LevelByAbbrev(tok)
		if !ok {
			return Layout{}, fmt.Errorf("core: layout %q: unknown resource %q", text, tok)
		}
		if seen[l] {
			return Layout{}, fmt.Errorf("core: layout %q: duplicate resource %q", text, tok)
		}
		seen[l] = true
		levels = append(levels, l)
	}
	if len(levels) == 0 {
		return Layout{}, fmt.Errorf("core: empty layout")
	}
	return Layout{levels: levels}, nil
}

// MustParseLayout is ParseLayout that panics on error, for tests and
// constant layouts.
func MustParseLayout(text string) Layout {
	l, err := ParseLayout(text)
	if err != nil {
		panic(err)
	}
	return l
}

// NewLayout builds a layout directly from levels (innermost first).
func NewLayout(levels ...hw.Level) (Layout, error) {
	seen := map[hw.Level]bool{}
	for _, l := range levels {
		if !l.Valid() {
			return Layout{}, fmt.Errorf("core: invalid level %d", int(l))
		}
		if seen[l] {
			return Layout{}, fmt.Errorf("core: duplicate level %s", l)
		}
		seen[l] = true
	}
	if len(levels) == 0 {
		return Layout{}, fmt.Errorf("core: empty layout")
	}
	return Layout{levels: append([]hw.Level(nil), levels...)}, nil
}

// String renders the layout back to its abbreviation string.
func (l Layout) String() string {
	var sb strings.Builder
	for _, lv := range l.levels {
		sb.WriteString(lv.Abbrev())
	}
	return sb.String()
}

// Levels returns the iteration order, innermost first. The caller must not
// modify the result.
func (l Layout) Levels() []hw.Level { return l.levels }

// Len returns the number of levels in the layout.
func (l Layout) Len() int { return len(l.levels) }

// Contains reports whether the layout includes the level.
func (l Layout) Contains(level hw.Level) bool {
	for _, lv := range l.levels {
		if lv == level {
			return true
		}
	}
	return false
}

// IntraNode returns the layout's non-node levels in canonical containment
// order (socket before core before PU, etc.), which is the path order used
// to resolve iteration coordinates against a node's pruned tree.
func (l Layout) IntraNode() []hw.Level {
	var intra []hw.Level
	for _, lv := range l.levels {
		if lv != hw.LevelMachine {
			intra = append(intra, lv)
		}
	}
	sort.Slice(intra, func(i, j int) bool { return intra[i] < intra[j] })
	return intra
}
