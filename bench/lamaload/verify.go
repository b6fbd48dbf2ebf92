package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/engine"
	"lama/internal/netsim"
	"lama/internal/place"

	_ "lama/internal/place/all" // every policy lamad serves
)

// commNet prices traffic-aware placements for job_comm_ms.
const commNet = "fat-tree:4"

// snapshots finds the snapshot a reply was served from by its cluster
// and epoch: part never changes, dc moves one epoch per churn event.
type snapshots struct {
	part *cluster.Snapshot
	dc   []*cluster.Snapshot // index = epoch-1
}

func (s *snapshots) at(name string, epoch uint64) (*cluster.Snapshot, error) {
	switch {
	case name == "part" && epoch == 1:
		return s.part, nil
	case name == "dc" && epoch >= 1 && epoch <= uint64(len(s.dc)):
		return s.dc[epoch-1], nil
	}
	return nil, fmt.Errorf("no snapshot of %s at epoch %d", name, epoch)
}

// The engine's request handling, restated so the oracle and the miss
// replay build exactly what it builds.

func isLama(req *engine.Request) bool { return req.Policy == "" || req.Policy == "lama" }

func lamaMapper(req *engine.Request, c *cluster.Cluster) (*core.Mapper, error) {
	text := req.Layout
	if text == "" {
		text = "csbnh"
	}
	layout, err := core.ParseLayout(text)
	if err != nil {
		return nil, err
	}
	return &core.Mapper{Cluster: c, Layout: layout, Opts: options(req)}, nil
}

func options(req *engine.Request) core.Options {
	return core.Options{Oversubscribe: req.Oversubscribe, PEsPerProc: req.PEsPerProc}
}

// policyRequest is the place.Request for a non-lama policy, without its
// traffic.
func policyRequest(req *engine.Request, c *cluster.Cluster) (*place.Request, error) {
	preq := &place.Request{Cluster: c, NP: req.NP, Opts: options(req)}
	if req.Layout != "" {
		var err error
		if preq.Layout, err = core.ParseLayout(req.Layout); err != nil {
			return nil, err
		}
	}
	return preq, nil
}

// traffic generates the request's pattern matrix; nil without a pattern.
func traffic(req *engine.Request) (*commpat.Matrix, error) {
	if req.Pattern == "" {
		return nil, nil
	}
	gen, ok := commpat.ByName(req.Pattern)
	if !ok {
		return nil, fmt.Errorf("unknown pattern %q", req.Pattern)
	}
	bytes := req.Bytes
	if bytes <= 0 {
		bytes = 1 << 20
	}
	return gen(req.NP, bytes), nil
}

// oracle recomputes a placement from scratch on the snapshot of the epoch
// a reply reports: lama requests through core.Mapper.MapReference, every
// other policy through place.Place.
type oracle struct {
	snapshots
	memo map[string]expectation
}

type expectation struct {
	m      *core.Map
	commMs float64 // simulated comm time, for requests with a pattern
}

func newOracle(s snapshots) *oracle {
	return &oracle{snapshots: s, memo: map[string]expectation{}}
}

// expected computes (once per distinct request and epoch) the placement
// the engine must serve.
func (o *oracle) expected(req *engine.Request, epoch uint64) (expectation, error) {
	key := fmt.Sprintf("%d|%+v", epoch, *req)
	if e, ok := o.memo[key]; ok {
		return e, nil
	}
	snap, err := o.at(req.Cluster, epoch)
	if err != nil {
		return expectation{}, err
	}
	var e expectation
	if isLama(req) {
		mp, err := lamaMapper(req, snap.Cluster())
		if err != nil {
			return expectation{}, err
		}
		if e.m, err = mp.MapReference(req.NP); err != nil {
			return expectation{}, err
		}
	} else {
		preq, err := policyRequest(req, snap.Cluster())
		if err != nil {
			return expectation{}, err
		}
		if preq.Traffic, err = traffic(req); err != nil {
			return expectation{}, err
		}
		if e.m, err = place.Place(context.Background(), req.Policy, preq); err != nil {
			return expectation{}, err
		}
		if preq.Traffic != nil {
			net, err := netsim.ParseNetwork(commNet, snap.NumNodes())
			if err != nil {
				return expectation{}, err
			}
			rep, err := netsim.NewModel(net).Evaluate(snap.Cluster(), e.m, preq.Traffic)
			if err != nil {
				return expectation{}, err
			}
			e.commMs = rep.TotalTime / 1000
		}
	}
	o.memo[key] = e
	return e, nil
}

// verifyAll checks every exchange against the oracle. It returns the
// number that matched, the simulated comm times of the matched ones that
// carry a pattern, and one error per mismatch.
func (o *oracle) verifyAll(xs []exchange) (ok int, commMs []float64, errs []error) {
	for i := range xs {
		x := &xs[i]
		e, err := o.verify(x)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %+v: %w", x.req, err))
			continue
		}
		ok++
		if x.req.Pattern != "" {
			commMs = append(commMs, e.commMs)
		}
	}
	return ok, commMs, errs
}

func (o *oracle) verify(x *exchange) (expectation, error) {
	var got engine.PlaceResponseJSON
	if err := json.Unmarshal(x.body, &got); err != nil {
		return expectation{}, fmt.Errorf("undecodable reply: %w", err)
	}
	e, err := o.expected(&x.req, got.Epoch)
	if err != nil {
		return expectation{}, err
	}
	return e, samePlacement(&got, &x.req, e.m)
}

// samePlacement compares a served placement with the oracle's rank by
// rank: node, node name and PUs.
func samePlacement(got *engine.PlaceResponseJSON, req *engine.Request, want *core.Map) error {
	if got.Cluster != req.Cluster || got.NP != req.NP || len(got.Placements) != want.NumRanks() {
		return fmt.Errorf("reply for %s np=%d with %d placements, want %s np=%d with %d",
			got.Cluster, got.NP, len(got.Placements), req.Cluster, req.NP, want.NumRanks())
	}
	for r, w := range want.Placements {
		g := got.Placements[r]
		if g.Rank != r || g.Node != w.Node || g.NodeName != w.NodeName || !slices.Equal(g.PUs, w.PUs) {
			return fmt.Errorf("rank %d: served rank %d on node %d (%s) PUs %v, oracle says node %d (%s) PUs %v",
				r, g.Rank, g.Node, g.NodeName, g.PUs, w.Node, w.NodeName, w.PUs)
		}
	}
	return nil
}
