package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// modelApply derives the reference model's next snapshot for one event,
// through the cluster package's own derivations: the engine must mint the
// same epochs. A fail-pus that changes nothing returns cur.
func modelApply(t *testing.T, cur *cluster.Snapshot, ev *Event) *cluster.Snapshot {
	switch ev.Type {
	case "fail-node":
		next, _ := cur.FailNode(ev.Node)
		return next
	case "fail-pus":
		next, _ := cur.FailPUs(ev.Node, hw.NewCPUSet(ev.PUs...))
		return next
	default:
		sp, ok := hw.Preset(ev.Preset)
		if !ok {
			t.Errorf("model: unknown preset %q", ev.Preset)
			return cur
		}
		return cur.AppendNode(&cluster.Node{Name: ev.Name, Topo: hw.New(sp), Slots: ev.Slots})
	}
}

// TestEngineMatchesSnapshotModel is a model-based test of the engine. Four
// clients place a seeded random stream of lama requests on a 512-node
// cluster through a 4-worker engine, while a writer applies a seeded
// random stream of fail-node, fail-pus and add-node events between them.
// The reference model is a map from epoch to cluster.Snapshot, derived
// independently from the same events. Every placement served, cached or
// fresh, must encode byte for byte like MapReference on the model's
// snapshot for the epoch the response reports.
func TestEngineMatchesSnapshotModel(t *testing.T) {
	const (
		nodes     = 512
		clients   = 4
		perClient = 100
		events    = 40
	)
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	base := cluster.SnapshotOf(cluster.Homogeneous(nodes, sp))
	e := New(Config{Workers: 4, QueueDepth: 64})
	if err := e.Register("model", &Snapshot{Clu: base}); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(42))
	evs := make([]Event, events)
	for i := range evs {
		// Targets cluster at the low nodes, where placements land.
		switch node := r.Intn(16); r.Intn(3) {
		case 0:
			evs[i] = Event{Type: "fail-node", Node: node}
		case 1:
			evs[i] = Event{Type: "fail-pus", Node: node, PUs: []int{r.Intn(16), r.Intn(16)}}
		default:
			evs[i] = Event{Type: "add-node", Preset: []string{"nehalem-ep", "fig2"}[r.Intn(2)], Name: fmt.Sprintf("grow%d", i), Slots: r.Intn(8)}
		}
	}
	reqs := make([][]Request, clients)
	for c := range reqs {
		for i := 0; i < perClient; i++ {
			req := Request{
				Cluster: "model",
				NP:      []int{8, 16, 64, 100}[r.Intn(4)],
				Layout:  []string{"", "ncsbh", "scbnh", "csbn"}[r.Intn(4)],
				NoCache: r.Intn(8) == 0,
			}
			if req.Layout == "csbn" {
				req.PEsPerProc = 1 + r.Intn(2) // a core holds two PUs; hwthread leaves hold one
			}
			reqs[c] = append(reqs[c], req)
			if r.Intn(3) == 0 {
				reqs[c] = append(reqs[c], req) // an immediate repeat, usually a cache hit
			}
		}
	}
	total := 0
	for _, rs := range reqs {
		total += len(rs)
	}

	type served struct {
		req  Request
		resp *Response
	}
	model := map[uint64]*cluster.Snapshot{1: base} // written by the writer only, read after Wait
	got := make([][]served, clients)
	// The events are paced through the request stream in lockstep: event
	// i waits for (i+1)*step placements, and no client starts a request
	// past that count until event i is applied. So every epoch the model
	// reaches serves about step placements, whatever the timing.
	step := int64(total / (events + 1))
	var placed, applied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := base
		for i := range evs {
			for placed.Load() < int64(i+1)*step {
				runtime.Gosched()
			}
			epoch, _, err := e.ApplyEvent("model", &evs[i])
			if err != nil {
				t.Errorf("event %d %+v: %v", i, evs[i], err)
			} else {
				cur = modelApply(t, cur, &evs[i])
				if epoch != cur.Epoch() {
					t.Errorf("event %d %+v: engine at epoch %d, model at %d", i, evs[i], epoch, cur.Epoch())
				}
				model[cur.Epoch()] = cur
			}
			applied.Store(int64(i + 1))
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs[c] {
				for a := applied.Load(); a < events && placed.Load() >= (a+1)*step; a = applied.Load() {
					runtime.Gosched()
				}
				req := reqs[c][i]
				resp, err := e.Place(context.Background(), &req)
				placed.Add(1)
				if err != nil {
					t.Errorf("client %d request %d %+v: %v", c, i, req, err)
					continue
				}
				got[c] = append(got[c], served{req, resp})
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	refs := map[string][]byte{}
	epochs := map[uint64]bool{}
	var cached, fresh int
	for _, list := range got {
		for _, s := range list {
			snap := model[s.resp.Epoch]
			if snap == nil {
				t.Fatalf("%+v served at epoch %d, which the model never reached", s.req, s.resp.Epoch)
			}
			layout := s.req.Layout
			if layout == "" {
				layout = "csbnh"
			}
			key := fmt.Sprintf("%d|%s|%d|%d", s.resp.Epoch, layout, s.req.NP, s.req.PEsPerProc)
			want, ok := refs[key]
			if !ok {
				m := &core.Mapper{Cluster: snap.Cluster(), Layout: core.MustParseLayout(layout), Opts: core.Options{PEsPerProc: s.req.PEsPerProc}}
				ref, err := m.MapReference(s.req.NP)
				if err != nil {
					t.Fatalf("reference for %s: %v", key, err)
				}
				want = encodeOracle(t, wireResponse("model", s.resp.Epoch, false, ref))
				refs[key] = want
			}
			if b := encodeOracle(t, wireResponse("model", s.resp.Epoch, false, s.resp.Map)); !bytes.Equal(b, want) {
				t.Fatalf("%+v at epoch %d (cached %v) differs from MapReference:\n%.300s\n%.300s", s.req, s.resp.Epoch, s.resp.Cached, b, want)
			}
			epochs[s.resp.Epoch] = true
			if s.resp.Cached {
				cached++
			} else {
				fresh++
			}
		}
	}
	t.Logf("%d placements (%d cached, %d fresh) over %d epochs, %d reference maps", cached+fresh, cached, fresh, len(epochs), len(refs))
	if cached == 0 || fresh == 0 || len(epochs) != len(model) {
		t.Fatalf("stream too narrow: %d cached, %d fresh, %d of %d epochs served", cached, fresh, len(epochs), len(model))
	}
}
