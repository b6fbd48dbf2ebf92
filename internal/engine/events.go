package engine

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// Event is one cluster mutation: the wire form accepted by the lamad
// daemon's POST /v1/clusters/{id}/events and the programmatic input of
// ApplyEvent. Each applied event mints a fresh snapshot via the cluster
// package's copy-on-write derivations — in-flight placements keep the
// snapshot they started with.
type Event struct {
	// Type selects the mutation: "fail-node", "fail-pus", or "add-node".
	Type string `json:"type"`
	// Node is the target node index (fail-node, fail-pus).
	Node int `json:"node"`
	// PUs lists OS PU indices to off-line (fail-pus).
	PUs []int `json:"pus,omitempty"`
	// Preset names the hardware preset for the new node (add-node), e.g.
	// "nehalem-ep". Name optionally overrides the generated host name
	// node<count>; either way the name must be new to the cluster.
	Preset string `json:"preset,omitempty"`
	Name   string `json:"name,omitempty"`
	// Slots optionally sets the new node's scheduler slot count
	// (add-node), checked like a hostfile's (cluster.Node.CheckSlots).
	Slots int `json:"slots,omitempty"`
}

// ApplyEvent derives the named cluster's next snapshot from an event and
// publishes it, purging the cluster's cache entries of earlier
// publications. It returns the new epoch and the purge count. A fail event
// that removes no usable PU is a no-op: it returns the current epoch, no
// new epoch is minted and the cache is untouched.
func (e *Engine) ApplyEvent(name string, ev *Event) (uint64, int, error) {
	if ev == nil {
		return 0, 0, fmt.Errorf("engine: nil event")
	}
	cur := e.Snapshot(name)
	if cur == nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownCluster, name)
	}
	var next *cluster.Snapshot
	switch ev.Type {
	case "fail-node":
		s, ok := cur.Clu.FailNode(ev.Node)
		if !ok {
			return 0, 0, fmt.Errorf("engine: fail-node: no node %d in %q", ev.Node, name)
		}
		if s == cur.Clu {
			return cur.Clu.Epoch(), 0, nil
		}
		next = s
	case "fail-pus":
		if ev.Node < 0 || ev.Node >= cur.Clu.NumNodes() {
			return 0, 0, fmt.Errorf("engine: fail-pus: no node %d in %q", ev.Node, name)
		}
		// Validate PU indices before building the bitmap: a negative index
		// panics in CPUSet.Set and a huge one allocates its bit's worth of
		// backing array.
		for _, pu := range ev.PUs {
			if pu < 0 || pu >= hw.MaxSpecPUs {
				return 0, 0, fmt.Errorf("engine: fail-pus: PU index %d out of range [0, %d)", pu, hw.MaxSpecPUs)
			}
		}
		s, changed := cur.Clu.FailPUs(ev.Node, hw.NewCPUSet(ev.PUs...))
		if changed == 0 {
			return cur.Clu.Epoch(), 0, nil
		}
		next = s
	case "add-node":
		sp, ok := hw.Preset(ev.Preset)
		if !ok {
			return 0, 0, fmt.Errorf("engine: add-node: unknown preset %q", ev.Preset)
		}
		node := &cluster.Node{Name: ev.Name, Topo: hw.New(sp), Slots: ev.Slots}
		if node.Name == "" {
			node.Name = fmt.Sprintf("node%d", cur.Clu.NumNodes())
		}
		if _, i := cur.Clu.Cluster().NodeByName(node.Name); i >= 0 {
			return 0, 0, fmt.Errorf("engine: add-node: %q already has a node %q", name, node.Name)
		}
		if err := node.CheckSlots(); err != nil {
			return 0, 0, fmt.Errorf("engine: add-node: %v", err)
		}
		next = cur.Clu.AppendNode(node)
	default:
		return 0, 0, fmt.Errorf("engine: unknown event type %q", ev.Type)
	}
	purged, err := e.Swap(name, &Snapshot{Clu: next})
	if err != nil {
		return 0, 0, err
	}
	return next.Epoch(), purged, nil
}
