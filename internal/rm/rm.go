// Package rm simulates the resource manager's allocation step in front of
// the mapping agent (paper §III-A): it owns a pool of nodes and grants
// jobs allocations at node or core granularity, returning them on release.
// A core-granular allocation hands the job a restricted view of each node
// (e.g. "half the cores of node A and half the cores of node B"), which is
// exactly the case that makes homogeneous hardware look heterogeneous to
// the mapper.
package rm

import (
	"errors"
	"fmt"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// Policy selects the allocation granularity.
type Policy int

const (
	// WholeNode grants entire nodes; the job sees unrestricted topologies.
	WholeNode Policy = iota
	// CoreGranular grants individual cores; the job sees each node
	// restricted to the PUs of its granted cores.
	CoreGranular
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case WholeNode:
		return "whole-node"
	case CoreGranular:
		return "core-granular"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrInsufficient is returned when the pool cannot satisfy a request.
var ErrInsufficient = errors.New("rm: insufficient free resources")

// Allocation is a granted set of resources. Granted is a deep copy of the
// pool nodes involved, restricted to what the job may use; it is safe for
// the job to mutate.
type Allocation struct {
	// ID identifies the allocation within its Manager.
	ID int
	// Granted is the job's restricted view of its nodes.
	Granted *cluster.Cluster

	// cores[nodeIdx] lists granted core logical indices in the pool node.
	cores map[int][]int
}

// Manager owns a node pool and tracks which cores are busy.
type Manager struct {
	pool   *cluster.Cluster
	busy   []map[int]bool // per pool node: core logical index -> busy
	nextID int
	live   map[int]*Allocation
}

// NewManager creates a manager over the pool. The pool is not copied; the
// manager assumes exclusive ownership.
func NewManager(pool *cluster.Cluster) *Manager {
	m := &Manager{pool: pool, live: map[int]*Allocation{}}
	for range pool.Nodes {
		m.busy = append(m.busy, map[int]bool{})
	}
	return m
}

// Alloc grants cores (CoreGranular) or whole nodes (WholeNode) sufficient
// for the requested number of single-core slots. It returns
// ErrInsufficient without side effects when the pool cannot satisfy the
// request.
func (m *Manager) Alloc(policy Policy, slots int) (*Allocation, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("rm: non-positive slot request %d", slots)
	}
	plan := map[int][]int{} // pool node index -> core logical indices
	need := slots
	for i, node := range m.pool.Nodes {
		if need <= 0 {
			break
		}
		var freeCores []int
		for _, c := range node.Topo.Objects(hw.LevelCore) {
			if len(node.Topo.UsableUnder(c)) > 0 && !m.busy[i][c.Logical] {
				freeCores = append(freeCores, c.Logical)
			}
		}
		if len(freeCores) == 0 {
			continue
		}
		switch policy {
		case WholeNode:
			// A whole-node grant requires every core of the node free.
			if len(freeCores) == len(node.Topo.ThreadRound(0)) {
				plan[i] = freeCores
				need -= len(freeCores)
			}
		case CoreGranular:
			take := need
			if take > len(freeCores) {
				take = len(freeCores)
			}
			plan[i] = freeCores[:take]
			need -= take
		default:
			return nil, fmt.Errorf("rm: unknown policy %v", policy)
		}
	}
	if need > 0 {
		return nil, fmt.Errorf("%w: %d slots short (requested %d, policy %v)",
			ErrInsufficient, need, slots, policy)
	}

	alloc := &Allocation{ID: m.nextID, cores: plan, Granted: &cluster.Cluster{}}
	m.nextID++
	for i, node := range m.pool.Nodes {
		granted, ok := plan[i]
		if !ok {
			continue
		}
		view := &cluster.Node{Name: node.Name, Topo: node.Topo.Clone(), Slots: len(granted)}
		if policy == CoreGranular {
			allowed := &hw.CPUSet{}
			for _, ci := range granted {
				allowed.Or(node.Topo.ObjectAt(hw.LevelCore, ci).PUSet())
			}
			view.Topo.Restrict(allowed)
		}
		alloc.Granted.Nodes = append(alloc.Granted.Nodes, view)
		for _, ci := range granted {
			m.busy[i][ci] = true
		}
	}
	m.live[alloc.ID] = alloc
	return alloc, nil
}

// Release returns an allocation's cores to the pool. Releasing an unknown
// or already-released allocation is an error.
//
//lama:api the facade's ResourceManager hands allocations back through it
func (m *Manager) Release(a *Allocation) error {
	if a == nil {
		return errors.New("rm: nil allocation")
	}
	if _, ok := m.live[a.ID]; !ok {
		return fmt.Errorf("rm: allocation %d not live", a.ID)
	}
	for i, cores := range a.cores {
		for _, ci := range cores {
			delete(m.busy[i], ci)
		}
	}
	delete(m.live, a.ID)
	return nil
}
