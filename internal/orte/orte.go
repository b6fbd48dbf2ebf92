// Package orte simulates the parallel run-time environment of §III: per-node
// daemons launch the local processes of a job according to a mapping plan,
// and a virtual OS scheduler runs each process only on the processing units
// its binding allows. The simulation makes binding semantics observable:
// with no restriction processes migrate across the node, with a specific
// single-PU binding they never migrate, and oversubscription appears as
// multiple processes occupying one PU in the same step.
package orte

import (
	"fmt"
	"sync"

	"lama/internal/bind"
	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// Process is one launched rank.
type Process struct {
	// Rank and Node locate the process.
	Rank int
	Node int
	// Allowed is the CPU set the virtual scheduler may run the process
	// on (never nil after launch; unbound processes get the node's full
	// usable set).
	Allowed *hw.CPUSet
	// History records the PU OS index the process occupied at each step.
	History []int
}

// Migrations returns how many times the process changed PUs.
func (p *Process) Migrations() int {
	n := 0
	for i := 1; i < len(p.History); i++ {
		if p.History[i] != p.History[i-1] {
			n++
		}
	}
	return n
}

// DistinctPUs returns the number of distinct PUs the process touched.
func (p *Process) DistinctPUs() int {
	seen := map[int]bool{}
	for _, pu := range p.History {
		seen[pu] = true
	}
	return len(seen)
}

// Daemon is the per-node launch agent.
type Daemon struct {
	// Node is the cluster node index the daemon manages.
	Node int
	// Ranks are the local ranks, in launch order.
	Ranks []int
}

// Job is a launched (completed) parallel job.
type Job struct {
	// Procs holds one entry per rank.
	Procs []*Process
	// Daemons holds the per-node launch agents that ran the job.
	Daemons []*Daemon
	// Steps is the number of virtual scheduler steps executed.
	Steps int
}

// Runtime launches jobs on a cluster.
type Runtime struct {
	Cluster *cluster.Cluster
}

// NewRuntime creates a runtime for the cluster.
func NewRuntime(c *cluster.Cluster) *Runtime { return &Runtime{Cluster: c} }

// Launch executes a job: it validates the map and binding plan, creates a
// daemon per used node, and runs every process for the given number of
// virtual scheduler steps. Each process runs concurrently (a goroutine);
// the virtual scheduler deterministically rotates each process through its
// allowed set, which models inter-processor migration whenever the set has
// more than one PU.
func (rt *Runtime) Launch(m *core.Map, plan *bind.Plan, steps int) (*Job, error) {
	if m == nil || m.NumRanks() == 0 {
		return nil, fmt.Errorf("orte: empty map")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("orte: non-positive step count %d", steps)
	}
	if err := m.Validate(rt.Cluster); err != nil {
		return nil, fmt.Errorf("orte: invalid map: %v", err)
	}
	if plan != nil {
		if len(plan.Bindings) != m.NumRanks() {
			return nil, fmt.Errorf("orte: plan has %d bindings for %d ranks",
				len(plan.Bindings), m.NumRanks())
		}
		if err := plan.Check(rt.Cluster); err != nil {
			return nil, fmt.Errorf("orte: unsatisfiable plan: %v", err)
		}
	}

	job := &Job{Steps: steps}
	perNode := m.RanksByNode()
	for node := 0; node < rt.Cluster.NumNodes(); node++ {
		if ranks, ok := perNode[node]; ok {
			job.Daemons = append(job.Daemons, &Daemon{Node: node, Ranks: ranks})
		}
	}

	job.Procs = make([]*Process, m.NumRanks())
	var wg sync.WaitGroup
	errs := make(chan error, m.NumRanks())
	for _, d := range job.Daemons {
		for _, rank := range d.Ranks {
			p := &Process{Rank: rank, Node: d.Node}
			if plan != nil && plan.Bindings[rank].CPUs != nil {
				p.Allowed = plan.Bindings[rank].CPUs.Clone()
			} else {
				p.Allowed = rt.Cluster.Node(d.Node).Topo.AllowedSet()
			}
			if p.Allowed.Empty() {
				return nil, fmt.Errorf("orte: rank %d has no runnable PUs", rank)
			}
			job.Procs[rank] = p
			wg.Add(1)
			go func(p *Process) {
				defer wg.Done()
				width := p.Allowed.Count()
				p.History = make([]int, steps)
				for s := 0; s < steps; s++ {
					// Virtual scheduler: rotate through the allowed set,
					// offset by rank so co-located processes spread out.
					pu := p.Allowed.Nth((p.Rank + s) % width)
					if pu < 0 {
						errs <- fmt.Errorf("orte: rank %d schedule failure", p.Rank)
						return
					}
					p.History[s] = pu
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	return job, nil
}

// MaxOccupancy returns, over all steps, the largest number of processes
// occupying one PU of one node simultaneously — 1 for a well-bound,
// non-oversubscribed job.
func (j *Job) MaxOccupancy() int {
	max := 0
	for s := 0; s < j.Steps; s++ {
		counts := map[[2]int]int{}
		for _, p := range j.Procs {
			if p == nil || s >= len(p.History) {
				continue
			}
			k := [2]int{p.Node, p.History[s]}
			counts[k]++
			if counts[k] > max {
				max = counts[k]
			}
		}
	}
	return max
}

// CheckEnforcement verifies that no process ever ran outside its allowed
// set — the launch-time guarantee of §III-B.
func (j *Job) CheckEnforcement() error {
	for _, p := range j.Procs {
		if p == nil {
			return fmt.Errorf("orte: missing process record")
		}
		for s, pu := range p.History {
			if !p.Allowed.Contains(pu) {
				return fmt.Errorf("orte: rank %d escaped its binding at step %d (PU %d not in %s)",
					p.Rank, s, pu, p.Allowed)
			}
		}
	}
	return nil
}
