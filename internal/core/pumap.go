package core

import (
	"math/bits"
	"sync"

	"lama/internal/hw"
)

// The maps of the one-PU mappers (the baselines, torus and treematch) are
// built by NewPUMap on storage drawn from size-classed pools: the
// Placements array and one []int that backs every rank's one-PU window.
// A caller that solely owns such a map, and has finished reading it, may
// hand the storage back with Recycle; a map that is never recycled is
// ordinary garbage.
//
// The storage is found again through one slot past the placements, in the
// Placements array's spare capacity: its Leaf is storageMark, its PUs the
// whole window array and its Rank the size class (noClass when the map was
// too large to pool). The slot lies beyond len, so nothing that reads the
// map, reflect.DeepEqual included, can tell a pooled map from any other,
// and Prefix, which cuts the capacity to np, hides it.

// storageMark marks the storage slot of a NewPUMap map; no topology holds
// it.
var storageMark hw.Object

// Size classes step by a quarter of a power of two, so a class wastes at
// most a fifth of its storage: 16, 20, 24, 28, 32, 40, ..., 4096 ranks.
const (
	minClassRanks = 16
	// maxPooledRanks bounds the maps whose storage is pooled (about
	// 330 KB at 4096 ranks); a larger map is allocated at its exact size
	// and dropped when recycled, so one huge job does not pin its storage.
	maxPooledRanks = 1 << 12
	// numClasses counts the classes: minClassRanks = 2^4, then four per
	// doubling up to maxPooledRanks = 2^12.
	numClasses = 1 + 4*(12-4)
	noClass    = -1
)

// sizeClass returns the class np rounds up to and that class's rank
// count, or noClass and np past maxPooledRanks.
func sizeClass(np int) (class, size int) {
	if np > maxPooledRanks {
		return noClass, np
	}
	if np <= minClassRanks {
		return 0, minClassRanks
	}
	k := bits.Len(uint(np-1)) - 1 // 2^k < np <= 2^(k+1)
	step := 1 << (k - 2)
	q := (np + step - 1) / step // 5..8 quarters
	return 1 + 4*(k-4) + q - 5, q * step
}

// puStorage is one pooled map's arrays, between a Recycle and the next
// NewPUMap of its class.
type puStorage struct {
	placements []Placement // class size + 1: the storage slot is last
	pus        []int
}

var puPools [numClasses]sync.Pool

// NewPUMap returns a single-sweep map of np ranks (np > 0) for SetPU to
// fill, every rank to be placed on one processing unit. Its placements
// are zero until set.
func NewPUMap(np int) *Map {
	class, size := sizeClass(np)
	var st *puStorage
	if class != noClass {
		st, _ = puPools[class].Get().(*puStorage)
	}
	if st == nil {
		st = &puStorage{placements: make([]Placement, size+1), pus: make([]int, size)}
	}
	st.placements[size] = Placement{Rank: class, Leaf: &storageMark, PUs: st.pus}
	return &Map{Placements: st.placements[:np], Sweeps: 1}
}

// SetPU places rank on the processing unit pu, a PU object of node,
// named nodeName. m must come from NewPUMap.
func (m *Map) SetPU(rank, node int, nodeName string, pu *hw.Object) {
	pus := m.storage().PUs
	pus[rank] = pu.OS
	m.Placements[rank] = Placement{
		Rank:     rank,
		Node:     node,
		NodeName: nodeName,
		Leaf:     pu,
		PUs:      pus[rank : rank+1 : rank+1],
	}
}

// storage returns m's storage slot, or nil when m did not come from
// NewPUMap or is a Prefix of such a map.
func (m *Map) storage() *Placement {
	full := m.Placements[:cap(m.Placements)]
	if len(full) == 0 {
		return nil
	}
	if slot := &full[len(full)-1]; slot.Leaf == &storageMark {
		return slot
	}
	return nil
}

// Recycle ends m's life: its Placements and SweepEnds become nil, so a
// late read panics instead of reading storage in use by another map, and
// storage drawn from a pool by NewPUMap goes back to it. The caller must
// own m solely, and nothing may hold m's placements or PU windows:
// recycle only the map a policy returned, once its reply is written.
// Other maps are only cleared.
func Recycle(m *Map) {
	full, slot := m.Placements[:cap(m.Placements)], m.storage()
	m.Placements, m.SweepEnds = nil, nil
	if slot == nil || slot.Rank == noClass {
		return
	}
	class, pus := slot.Rank, slot.PUs
	// A pooled array keeps no pointer into a topology or a name, so the
	// pool pins no retired snapshot.
	clear(full)
	puPools[class].Put(&puStorage{placements: full, pus: pus})
}
