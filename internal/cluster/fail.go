package cluster

import "lama/internal/hw"

// Run-time failure mutation API. A cluster that has been handed to a
// run-time (orte.Runtime) can lose hardware while a job is running; these
// methods record the loss so that mapping agents and binding checks see
// the node/PUs as unusable. Failures are modeled through the availability
// mechanism of paper §III-A (scheduler restrictions), so every existing
// consumer — the LAMA mapper, bind.Plan checks, hostfile formatting —
// handles a failed resource with no special cases.

// FailNode marks node i as failed: the whole node (its machine root)
// becomes unavailable, so no PU beneath it is usable. It returns false if
// no such node exists. Failing an already-failed node is a no-op.
func (c *Cluster) FailNode(i int) bool {
	n := c.Node(i)
	if n == nil {
		return false
	}
	root := n.Topo.ObjectAt(hw.LevelMachine, 0)
	if root == nil {
		return false
	}
	if !root.Available {
		return true // already failed: idempotent
	}
	// Route through the topology API so the mutation advances the
	// topology's generation counter and invalidates mapping-engine caches.
	return n.Topo.SetAvailable(hw.LevelMachine, 0, false)
}

// FailPUs marks the given PU OS indices of node i unavailable — a partial
// failure such as a dead core. It returns the number of PUs that changed
// from usable to failed (0 for an unknown node or already-failed PUs).
func (c *Cluster) FailPUs(i int, pus *hw.CPUSet) int {
	n := c.Node(i)
	if n == nil {
		return 0
	}
	return n.Topo.Offline(pus)
}
