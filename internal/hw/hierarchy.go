package hw

import (
	"fmt"
	"math/bits"
)

// Hierarchy is a topology's structural table: which PU has a given OS
// index, and at which level two PUs meet. New and UnmarshalJSON build it;
// it is immutable, and clones share it.
//
// Every ancestor of a PU writes the Rank of its child on the PU's path
// into a bit field its level owns, outer levels in higher bits, each
// field bits.Len(maxChildren−1) wide. Two PUs' codes first differ in the
// field of their lowest common ancestor's level, so that level is one
// lookup on the bit length of the codes' XOR.
//
//lama:frozen
type Hierarchy struct {
	// shapeSig is the structural signature; see Topology.ShapeSig.
	shapeSig string
	// ordinal maps a PU OS index to the PU's logical index, -1 when no PU
	// has it.
	ordinal []int32
	// code is every PU's path code, by logical index.
	code []uint64
	// level[b] is the level whose field holds bit b−1 of a code; level[0],
	// for equal codes, is LevelPU.
	level [65]uint8
}

// newHierarchy builds the table of t's tree, whose root, per-level
// indexes, ranks and logical indices must be set. It fails when a PU OS
// index is negative, repeated or at least MaxSpecPUs, or when the path
// code needs more than 64 bits; a valid Spec never does.
//
//lama:mutator
func (t *Topology) newHierarchy() (*Hierarchy, error) {
	h := &Hierarchy{shapeSig: t.structureSig()}
	var shift [NumLevels]int
	used := 0
	for l := LevelCore; l >= LevelMachine; l-- {
		shift[l] = used
		used += bits.Len(uint(max(t.MaxChildren(l), 1) - 1))
		for b := shift[l] + 1; b <= min(used, 64); b++ {
			h.level[b] = uint8(l)
		}
	}
	if used > 64 {
		return nil, fmt.Errorf("hw: topology needs a %d-bit PU path code, more than 64", used)
	}
	h.level[0] = uint8(LevelPU)
	pus := t.byLevel[LevelPU]
	h.code = make([]uint64, len(pus))
	maxOS := -1
	for i, pu := range pus {
		if pu.OS < 0 || pu.OS >= MaxSpecPUs {
			return nil, fmt.Errorf("hw: PU OS index %d outside [0, %d)", pu.OS, MaxSpecPUs)
		}
		maxOS = max(maxOS, pu.OS)
		for x := pu; x.Parent != nil; x = x.Parent {
			h.code[i] |= uint64(x.Rank) << shift[x.Parent.Level]
		}
	}
	h.ordinal = make([]int32, maxOS+1)
	for os := range h.ordinal {
		h.ordinal[os] = -1
	}
	for i, pu := range pus {
		if h.ordinal[pu.OS] >= 0 {
			return nil, fmt.Errorf("hw: PU OS index %d appears twice", pu.OS)
		}
		h.ordinal[pu.OS] = int32(i)
	}
	return h, nil
}

// Ordinal returns the logical index of the PU with OS index os, or -1
// when the topology has no such PU.
//
//lama:hotpath
func (h *Hierarchy) Ordinal(os int) int {
	if uint(os) >= uint(len(h.ordinal)) {
		return -1
	}
	return int(h.ordinal[os])
}

// LCALevel returns the level of the lowest common ancestor of the PUs
// with logical indices i and j, LevelPU when i == j. Both must index the
// topology's PUs.
//
//lama:hotpath
func (h *Hierarchy) LCALevel(i, j int) Level {
	return Level(h.level[bits.Len64(h.code[i]^h.code[j])])
}
