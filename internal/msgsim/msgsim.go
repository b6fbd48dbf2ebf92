// Package msgsim is a flow-level message simulator: the messages of one
// communication phase share network resources under max-min fairness, and
// an event-driven fluid simulation computes when each message actually
// finishes. It exists to ablate the analytic cost models (netsim sums,
// appsim maxima): where those approximate contention, msgsim resolves it,
// at the price of O(messages²) work.
//
// Resources modeled per message path:
//   - the sending node's uplink and the receiving node's downlink
//     (capacity = the pair's network bandwidth), for inter-node messages;
//   - every torus link on the dimension-ordered route when the network is
//     a Torus3D (link capacity = per-link bandwidth);
//   - the node's internal fabric for intra-node messages (capacity = the
//     LCA level's bandwidth).
package msgsim

import (
	"fmt"
	"math"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
)

// Message is one transfer of a communication phase.
type Message struct {
	Src, Dst int // ranks
	Bytes    float64
}

// Outcome reports one simulated message.
type Outcome struct {
	Message
	// Finish is the completion time in µs (all messages start at 0).
	Finish float64
}

// Result is a completed phase simulation.
type Result struct {
	// Outcomes is ordered as the input messages.
	Outcomes []Outcome
	// Makespan is the latest finish time.
	Makespan float64
	// Events is the number of fluid re-allocations performed.
	Events int
}

// resource is a shared capacity with the set of unfinished flows using it.
type resource struct {
	capacity float64
	flows    map[int]bool
}

// flow is one in-flight message.
type flow struct {
	remaining float64
	startAt   float64 // path latency elapses before bytes move
	resources []*resource
	done      bool
	finish    float64
}

// Run simulates the message set under the model for the mapping. Message
// latency is charged up front (the flow starts after its path latency).
func Run(c *cluster.Cluster, m *core.Map, model *netsim.Model, msgs []Message) (*Result, error) {
	if len(msgs) == 0 {
		return &Result{}, nil
	}
	resources := map[string]*resource{}
	getRes := func(key string, capacity float64) *resource {
		r, ok := resources[key]
		if !ok {
			r = &resource{capacity: capacity, flows: map[int]bool{}}
			resources[key] = r
		}
		return r
	}

	pr, err := model.Pricing(c)
	if err != nil {
		return nil, err
	}
	node, pu, err := pr.Locate(m)
	if err != nil {
		return nil, err
	}
	t3, isTorus := model.Net.(*netsim.Torus3D)
	flows := make([]*flow, len(msgs))
	for i, msg := range msgs {
		if msg.Src < 0 || msg.Dst < 0 || msg.Src >= m.NumRanks() || msg.Dst >= m.NumRanks() {
			return nil, fmt.Errorf("msgsim: message %d has rank out of range", i)
		}
		if msg.Bytes <= 0 {
			return nil, fmt.Errorf("msgsim: message %d has non-positive size", i)
		}
		if msg.Src == msg.Dst {
			return nil, fmt.Errorf("msgsim: message %d is a self-send", i)
		}
		ns, nd := node[msg.Src], node[msg.Dst]
		lat, bw, level := pr.Link(ns, pu[msg.Src], nd, pu[msg.Dst])
		f := &flow{remaining: msg.Bytes, startAt: lat}
		if ns == nd {
			// One aggregate channel per (node, locality level): messages
			// crossing the same fabric tier contend, tiers do not.
			f.resources = append(f.resources,
				getRes(fmt.Sprintf("fabric:%d:%d", ns, level), bw))
		} else {
			f.resources = append(f.resources,
				getRes(fmt.Sprintf("up:%d", ns), bw),
				getRes(fmt.Sprintf("down:%d", nd), bw))
			if isTorus {
				for _, key := range t3.RouteKeys(int(ns), int(nd)) {
					f.resources = append(f.resources, getRes("link:"+key, t3.BW))
				}
			}
		}
		flows[i] = f
		for _, r := range f.resources {
			r.flows[i] = true
		}
	}

	res := &Result{Outcomes: make([]Outcome, len(msgs))}
	now := 0.0
	active := len(flows)
	for active > 0 {
		res.Events++
		rates := maxMinRates(flows, now)
		next := math.Inf(1)
		for i, f := range flows {
			if f.done {
				continue
			}
			if now < f.startAt {
				if f.startAt < next {
					next = f.startAt
				}
				continue
			}
			if rates[i] > 0 {
				eta := now + f.remaining/rates[i]
				if eta < next {
					next = eta
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("msgsim: stalled at t=%v with %d flows", now, active)
		}
		dt := next - now
		for i, f := range flows {
			if f.done || now < f.startAt {
				continue
			}
			f.remaining -= rates[i] * dt
			// A residue too small to move the clock (now + remaining/rate
			// rounds to now) would stall every later event at dt = 0: the
			// flow finishes now.
			if f.remaining <= 1e-9 || (dt == 0 && rates[i] > 0 && now+f.remaining/rates[i] == now) {
				f.done = true
				f.finish = next
				active--
				for _, r := range f.resources {
					delete(r.flows, i)
				}
			}
		}
		now = next
	}
	for i, f := range flows {
		res.Outcomes[i] = Outcome{Message: msgs[i], Finish: f.finish}
		if f.finish > res.Makespan {
			res.Makespan = f.finish
		}
	}
	return res, nil
}

// maxMinRates computes max-min fair rates for the unfinished flows that
// are past their latency window: repeatedly saturate the most constrained
// resource and freeze its flows at the fair share.
func maxMinRates(flows []*flow, now float64) []float64 {
	rates := make([]float64, len(flows))
	fixed := make([]bool, len(flows))
	// Flows not yet transferring are treated as fixed at rate 0.
	eligible := 0
	for i, f := range flows {
		if f.done || now < f.startAt {
			fixed[i] = true
		} else {
			eligible++
		}
	}
	// Residual capacity per resource.
	type state struct {
		res      *resource
		residual float64
	}
	var states []state
	seen := map[*resource]bool{}
	for i, f := range flows {
		if fixed[i] {
			continue
		}
		for _, r := range f.resources {
			if !seen[r] {
				seen[r] = true
				states = append(states, state{res: r, residual: r.capacity})
			}
		}
	}
	for eligible > 0 {
		// Find the bottleneck: the resource with the smallest fair share
		// among its unfixed flows.
		bestShare := math.Inf(1)
		bestIdx := -1
		for si := range states {
			n := 0
			for fi := range states[si].res.flows {
				if !fixed[fi] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			share := states[si].residual / float64(n)
			if share < bestShare {
				bestShare = share
				bestIdx = si
			}
		}
		if bestIdx < 0 {
			// No constrained resource left (should not happen: every
			// eligible flow uses at least one resource).
			break
		}
		// Freeze the bottleneck's flows at the fair share and charge
		// their rate to every other resource they traverse.
		for fi := range states[bestIdx].res.flows {
			if fixed[fi] {
				continue
			}
			fixed[fi] = true
			rates[fi] = bestShare
			eligible--
			for _, r := range flows[fi].resources {
				for si := range states {
					if states[si].res == r {
						states[si].residual -= bestShare
						if states[si].residual < 0 {
							states[si].residual = 0
						}
					}
				}
			}
		}
	}
	return rates
}

// FromMatrix converts a traffic matrix into the message list of one
// phase, in (src, dst) order — the order Each yields.
func FromMatrix(tm *commpat.Matrix) []Message {
	msgs := make([]Message, 0, tm.NNZ())
	tm.Each(func(i, j int, bytes float64) {
		msgs = append(msgs, Message{Src: i, Dst: j, Bytes: bytes})
	})
	return msgs
}
