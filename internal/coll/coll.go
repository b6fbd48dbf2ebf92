// Package coll models the completion time of MPI collective operations
// under a mapping: the classic algorithms (binomial-tree broadcast,
// recursive-doubling and ring allreduce, pairwise-exchange all-to-all,
// dissemination barrier) are executed round by round over the netsim cost
// model, so that a collective's cost depends on where each rank actually
// sits — which is precisely why process placement matters to MPI
// applications (paper §I).
//
// Each algorithm returns the simulated completion time: the sum over
// rounds of the slowest exchange in that round (collectives synchronize
// between rounds in these models).
package coll

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/netsim"
)

// Op identifies a collective operation.
type Op int

const (
	// Broadcast is a binomial-tree broadcast from rank 0.
	Broadcast Op = iota
	// AllreduceRD is a recursive-doubling allreduce (power-of-two ranks;
	// others use the nearest lower power with a fold-in pre-round).
	AllreduceRD
	// AllreduceRing is a ring (bandwidth-optimal) allreduce.
	AllreduceRing
	// Alltoall is a pairwise-exchange all-to-all.
	Alltoall
	// Barrier is a dissemination barrier (zero-byte messages).
	Barrier
)

// String names the op.
func (o Op) String() string {
	switch o {
	case Broadcast:
		return "broadcast"
	case AllreduceRD:
		return "allreduce-rd"
	case AllreduceRing:
		return "allreduce-ring"
	case Alltoall:
		return "alltoall"
	case Barrier:
		return "barrier"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Result describes one simulated collective.
type Result struct {
	// TimeUs is the completion time in µs.
	TimeUs float64
	// Rounds is the number of synchronized communication rounds.
	Rounds int
	// Messages is the total number of point-to-point messages.
	Messages int
}

// Run simulates the collective over np = m.NumRanks() ranks moving `bytes`
// per rank (the message size for broadcast; the vector size for
// reductions; the per-partner block for all-to-all; ignored for barrier).
func Run(op Op, c *cluster.Cluster, m *core.Map, model *netsim.Model, bytes float64) (*Result, error) {
	np := m.NumRanks()
	if np == 0 {
		return nil, fmt.Errorf("coll: empty map")
	}
	if bytes < 0 {
		return nil, fmt.Errorf("coll: negative message size")
	}
	sim, err := newRoundSim(c, m, model)
	if err != nil {
		return nil, err
	}
	switch op {
	case Broadcast:
		return sim.broadcast(bytes)
	case AllreduceRD:
		return sim.allreduceRD(bytes)
	case AllreduceRing:
		return sim.allreduceRing(bytes)
	case Alltoall:
		return sim.alltoall(bytes)
	case Barrier:
		return sim.barrier()
	default:
		return nil, fmt.Errorf("coll: unknown op %v", op)
	}
}

// roundSim accumulates synchronized rounds of point-to-point exchanges,
// each priced by the model compiled once for the run.
type roundSim struct {
	m        *core.Map
	pr       *netsim.Pricing
	node, pu []int32 // rank -> pricing endpoint

	res Result
}

func newRoundSim(c *cluster.Cluster, m *core.Map, model *netsim.Model) (*roundSim, error) {
	pr, err := model.Pricing(c)
	if err != nil {
		return nil, err
	}
	node, pu, err := pr.Locate(m)
	if err != nil {
		return nil, err
	}
	return &roundSim{m: m, pr: pr, node: node, pu: pu}, nil
}

// round executes one synchronized round: pairs is a list of (src, dst,
// bytes) exchanges that proceed in parallel; the round costs as much as
// its slowest exchange.
func (s *roundSim) round(pairs [][3]float64) {
	if len(pairs) == 0 {
		return
	}
	worst := 0.0
	for _, p := range pairs {
		a, b := int(p[0]), int(p[1])
		if cost := s.pr.Edge(s.node[a], s.pu[a], s.node[b], s.pu[b], p[2]); cost > worst {
			worst = cost
		}
		s.res.Messages++
	}
	s.res.TimeUs += worst
	s.res.Rounds++
}

func (s *roundSim) finish() (*Result, error) { return &s.res, nil }

// broadcast: binomial tree from rank 0; in round k, ranks < 2^k forward
// to rank + 2^k.
func (s *roundSim) broadcast(bytes float64) (*Result, error) {
	np := s.m.NumRanks()
	for span := 1; span < np; span *= 2 {
		var pairs [][3]float64
		for src := 0; src < span && src+span < np; src++ {
			pairs = append(pairs, [3]float64{float64(src), float64(src + span), bytes})
		}
		s.round(pairs)
	}
	return s.finish()
}

// allreduceRD: recursive doubling over the largest power-of-two group,
// with fold-in/fold-out rounds for the remainder.
func (s *roundSim) allreduceRD(bytes float64) (*Result, error) {
	np := s.m.NumRanks()
	pow2 := 1
	for pow2*2 <= np {
		pow2 *= 2
	}
	rem := np - pow2
	// Fold in: ranks pow2..np-1 send their vector to rank-pow2.
	var fold [][3]float64
	for r := pow2; r < np; r++ {
		fold = append(fold, [3]float64{float64(r), float64(r - pow2), bytes})
	}
	s.round(fold)
	// Recursive doubling among 0..pow2-1: exchange with partner r^mask.
	for mask := 1; mask < pow2; mask *= 2 {
		var pairs [][3]float64
		for r := 0; r < pow2; r++ {
			partner := r ^ mask
			if r < partner {
				// Bidirectional exchange: two messages.
				pairs = append(pairs,
					[3]float64{float64(r), float64(partner), bytes},
					[3]float64{float64(partner), float64(r), bytes})
			}
		}
		s.round(pairs)
	}
	// Fold out: results back to the remainder ranks.
	var out [][3]float64
	for r := 0; r < rem; r++ {
		out = append(out, [3]float64{float64(r), float64(r + pow2), bytes})
	}
	s.round(out)
	return s.finish()
}

// allreduceRing: 2(np-1) rounds of neighbor exchanges moving 1/np of the
// vector each (reduce-scatter then allgather).
func (s *roundSim) allreduceRing(bytes float64) (*Result, error) {
	np := s.m.NumRanks()
	if np == 1 {
		return s.finish()
	}
	chunk := bytes / float64(np)
	for phase := 0; phase < 2*(np-1); phase++ {
		var pairs [][3]float64
		for r := 0; r < np; r++ {
			pairs = append(pairs, [3]float64{float64(r), float64((r + 1) % np), chunk})
		}
		s.round(pairs)
	}
	return s.finish()
}

// alltoall: np-1 pairwise-exchange rounds; in round k, rank r exchanges
// with rank r^k when that is a valid distinct rank (power-of-two np), or
// (r+k) mod np otherwise.
func (s *roundSim) alltoall(bytes float64) (*Result, error) {
	np := s.m.NumRanks()
	isPow2 := np&(np-1) == 0
	for k := 1; k < np; k++ {
		var pairs [][3]float64
		for r := 0; r < np; r++ {
			var partner int
			if isPow2 {
				partner = r ^ k
			} else {
				partner = (r + k) % np
			}
			if partner != r {
				pairs = append(pairs, [3]float64{float64(r), float64(partner), bytes})
			}
		}
		s.round(pairs)
	}
	return s.finish()
}

// barrier: dissemination barrier with ceil(log2 np) rounds of zero-byte
// notifications.
func (s *roundSim) barrier() (*Result, error) {
	np := s.m.NumRanks()
	for span := 1; span < np; span *= 2 {
		var pairs [][3]float64
		for r := 0; r < np; r++ {
			pairs = append(pairs, [3]float64{float64(r), float64((r + span) % np), 0})
		}
		s.round(pairs)
	}
	return s.finish()
}
