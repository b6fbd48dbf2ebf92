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
	"lama/internal/obs"
)

// modelApply derives the reference model's next snapshot for one event,
// through the cluster package's own derivations: the engine must mint the
// same epochs. A fail event that removes no usable PU returns cur.
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

// modelOp is one writer step of the model test: a cluster event through
// ApplyEvent, or (ev nil) a Register replacing the cluster's snapshot.
// A re-register either jumps ahead (one node failed, one epoch past the
// current, or the current snapshot again when that node had no usable PU
// left) or, when lower is set, rolls back
// to an earlier published snapshot; pick chooses which.
type modelOp struct {
	ev    *Event
	lower bool
	pick  float64
}

// cachePubs lists the publications of the cluster's cache entries.
func cachePubs(c *lruCache, name string) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pubs []uint64
	for el := c.order.Front(); el != nil; el = el.Next() {
		if k := el.Value.(*cacheEntry).key; k.cluster == name {
			pubs = append(pubs, k.pub)
		}
	}
	return pubs
}

// TestEngineMatchesSnapshotModel is a model-based test of the engine. Four
// clients place a seeded random stream of lama requests on a 512-node
// cluster through a 4-worker engine, while a writer applies a seeded
// random stream of fail-node, fail-pus and add-node events and
// re-registrations, at a higher epoch and at a lower one, between them.
// The reference model is the list of snapshots the writer published,
// derived independently from the same steps. Every placement served,
// cached or fresh, must encode byte for byte like MapReference on a
// snapshot published while it was in flight, at the epoch the response
// reports. A re-register must purge every cache entry of the snapshot it
// replaces, counting them stale, and the cluster must still cache after
// it: the first placement misses and its repeat hits.
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
	e := New(Config{Workers: 4, QueueDepth: 64, Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	if err := e.Register("model", &Snapshot{Clu: base}); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(42))
	ops := make([]modelOp, events)
	registers := map[bool]int{} // by lower
	for i := range ops {
		// Targets cluster at the low nodes, where placements land.
		switch node := r.Intn(16); r.Intn(8) {
		case 0, 1:
			ops[i].ev = &Event{Type: "fail-node", Node: node}
		case 2, 3:
			ops[i].ev = &Event{Type: "fail-pus", Node: node, PUs: []int{r.Intn(16), r.Intn(16)}}
		case 4, 5:
			ops[i].ev = &Event{Type: "add-node", Preset: []string{"nehalem-ep", "fig2"}[r.Intn(2)], Name: fmt.Sprintf("grow%d", i), Slots: r.Intn(8)}
		default:
			ops[i] = modelOp{lower: r.Intn(2) == 0, pick: r.Float64()}
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

	// served is one response with the window of writer steps it was in
	// flight across: its snapshot is one of published[from : to+2].
	type served struct {
		req      Request
		resp     *Response
		from, to int64
	}
	// published[k] is the cluster's snapshot after k writer steps; written
	// by the writer only, read after Wait.
	published := []*cluster.Snapshot{base}
	got := make([][]served, clients+1) // the last slot is the writer's
	// The steps are paced through the request stream in lockstep: step i
	// waits for (i+1)*step placements, and no client starts a request
	// past that count until step i is applied. So every epoch the model
	// reaches serves about step placements, whatever the timing.
	step := int64(total / (events + 1))
	var started, placed, applied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := base
		for i := range ops {
			for placed.Load() < int64(i+1)*step {
				runtime.Gosched()
			}
			if op := &ops[i]; op.ev != nil {
				epoch, _, err := e.ApplyEvent("model", op.ev)
				if err != nil {
					t.Errorf("step %d %+v: %v", i, *op.ev, err)
				} else {
					cur = modelApply(t, cur, op.ev)
					if epoch != cur.Epoch() {
						t.Errorf("step %d %+v: engine at epoch %d, model at %d", i, *op.ev, epoch, cur.Epoch())
					}
				}
			} else {
				// No client starts a request now; wait out those in flight,
				// so none can put an entry behind the purge checked below.
				for started.Load() != placed.Load() {
					runtime.Gosched()
				}
				next, lower := cur, op.lower && cur.Epoch() > 1
				if lower {
					var older []*cluster.Snapshot
					for _, s := range published {
						if s.Epoch() < cur.Epoch() {
							older = append(older, s)
						}
					}
					next = older[int(op.pick*float64(len(older)))]
				} else {
					next, _ = cur.FailNode(int(op.pick * 16))
				}
				registers[lower]++
				held, stale := len(cachePubs(e.cache, "model")), e.stale.Value()
				if err := e.Register("model", &Snapshot{Clu: next}); err != nil {
					t.Errorf("step %d: Register: %v", i, err)
				}
				cur = next
				if left := cachePubs(e.cache, "model"); len(left) != 0 {
					t.Errorf("step %d: re-register at epoch %d (lower %v) left entries of publications %v", i, cur.Epoch(), lower, left)
				}
				if purged := e.stale.Value() - stale; purged != int64(held) {
					t.Errorf("step %d: re-register purged %d stale entries, want %d", i, purged, held)
				}
				req := Request{Cluster: "model", NP: 16}
				for _, wantCached := range []bool{false, true} {
					resp, err := e.Place(context.Background(), &req)
					if err != nil {
						t.Errorf("step %d: place after re-register: %v", i, err)
						break
					}
					if resp.Cached != wantCached || resp.Epoch != cur.Epoch() {
						t.Errorf("step %d: after re-register: cached=%v epoch=%d, want %v, %d", i, resp.Cached, resp.Epoch, wantCached, cur.Epoch())
					}
					got[clients] = append(got[clients], served{req, resp, int64(i + 1), int64(i + 1)})
				}
			}
			published = append(published, cur)
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
				started.Add(1)
				from := applied.Load()
				resp, err := e.Place(context.Background(), &req)
				to := applied.Load()
				placed.Add(1)
				if err != nil {
					t.Errorf("client %d request %d %+v: %v", c, i, req, err)
					continue
				}
				got[c] = append(got[c], served{req, resp, from, to})
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	refs := map[string][]byte{}
	reference := func(snap *cluster.Snapshot, req *Request) []byte {
		layout := req.Layout
		if layout == "" {
			layout = "csbnh"
		}
		key := fmt.Sprintf("%p|%s|%d|%d", snap, layout, req.NP, req.PEsPerProc)
		if want, ok := refs[key]; ok {
			return want
		}
		m := &core.Mapper{Cluster: snap.Cluster(), Layout: core.MustParseLayout(layout), Opts: core.Options{PEsPerProc: req.PEsPerProc}}
		ref, err := m.MapReference(req.NP)
		if err != nil {
			t.Fatalf("reference for %s: %v", key, err)
		}
		refs[key] = encodeOracle(t, wireResponse("model", snap.Epoch(), false, ref))
		return refs[key]
	}
	epochs := map[uint64]bool{}
	var cached, fresh int
	for _, list := range got {
		for _, s := range list {
			b := encodeOracle(t, wireResponse("model", s.resp.Epoch, false, &s.resp.Map))
			match, reached := false, false
			for _, snap := range published[s.from:min(s.to+2, int64(len(published)))] {
				if snap.Epoch() == s.resp.Epoch {
					reached = true
					match = match || bytes.Equal(b, reference(snap, &s.req))
				}
			}
			if !reached {
				t.Fatalf("%+v served at epoch %d, which no snapshot published while it was in flight has", s.req, s.resp.Epoch)
			}
			if !match {
				t.Fatalf("%+v at epoch %d (cached %v) differs from MapReference:\n%.300s", s.req, s.resp.Epoch, s.resp.Cached, b)
			}
			epochs[s.resp.Epoch] = true
			if s.resp.Cached {
				cached++
			} else {
				fresh++
			}
		}
	}
	modelEpochs := map[uint64]bool{}
	for _, s := range published {
		modelEpochs[s.Epoch()] = true
	}
	t.Logf("%d placements (%d cached, %d fresh) over %d epochs, %d reference maps, %d/%d re-registers higher/lower",
		cached+fresh, cached, fresh, len(epochs), len(refs), registers[false], registers[true])
	if cached == 0 || fresh == 0 || len(epochs) != len(modelEpochs) || registers[false] == 0 || registers[true] == 0 {
		t.Fatalf("stream too narrow: %d cached, %d fresh, %d of %d epochs served, %d/%d re-registers higher/lower",
			cached, fresh, len(epochs), len(modelEpochs), registers[false], registers[true])
	}
}
