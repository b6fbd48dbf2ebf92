package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// registerHomogeneous registers, or re-registers, a nodes × nehalem-ep
// cluster as "c".
func registerHomogeneous(t testing.TB, e *Engine, nodes int) {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	if err := e.Register("c", &Snapshot{Clu: cluster.HomogeneousSnapshot(nodes, sp)}); err != nil {
		t.Fatal(err)
	}
}

// failPUsEvents lists n fail-pus events on distinct (node, PU) pairs of a
// nehalem-ep cluster, the PU varying fastest, so that each one changes
// the snapshot it is applied to.
func failPUsEvents(n, nodes int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Type: "fail-pus", Node: i / 16 % nodes, PUs: []int{i % 16}}
	}
	return evs
}

// TestApplyEventAllocsFlatInCluster pins the cost of publishing an event
// to the node it touches: an ApplyEvent that changes the snapshot
// allocates as many objects on 4096 nodes as on 256. The derivation
// clones the touched node's topology and copies the node slice in one
// allocation; a derivation that stamped or hashed every node again would
// show up here as allocations growing with the node count.
func TestApplyEventAllocsFlatInCluster(t *testing.T) {
	const runs = 50
	allocs := map[int]float64{}
	for _, nodes := range []int{256, 4096} {
		e := New(Config{})
		registerHomogeneous(t, e, nodes)
		evs := failPUsEvents(runs+1, nodes) // AllocsPerRun adds a warm-up run
		next := 0
		allocs[nodes] = testing.AllocsPerRun(runs, func() {
			ev := &evs[next]
			next++
			epoch, _, err := e.ApplyEvent("c", ev)
			if err != nil || epoch != uint64(next+1) {
				t.Fatalf("event %d %+v: epoch %d, err %v; want epoch %d", next, *ev, epoch, err, next+1)
			}
		})
	}
	t.Logf("changing fail-pus: %.0f allocs/op on 256 nodes, %.0f on 4096", allocs[256], allocs[4096])
	if allocs[4096] != allocs[256] {
		t.Fatalf("changing fail-pus: %.0f allocs/op on 4096 nodes, %.0f on 256", allocs[4096], allocs[256])
	}
}

// TestEngineEventsThatLoseNoPUAreNoOps: a fail event that removes no
// usable PU (a node failed twice, PUs of a failed node, PUs already
// failed) is acknowledged at the current epoch, purges nothing and mints
// no publication, so the placements cached before it are still hits.
func TestEngineEventsThatLoseNoPUAreNoOps(t *testing.T) {
	e := New(Config{})
	registerHomogeneous(t, e, 8)
	ctx := context.Background()
	reqs := []*Request{{Cluster: "c", NP: 16}, {Cluster: "c", NP: 24, Layout: "ncsbh"}, {Cluster: "c", NP: 40, Layout: "scbnh"}}
	// place caches every request at the current epoch, then serves each
	// again and checks that the repeat is a hit there.
	place := func(step string, epoch uint64) {
		t.Helper()
		for _, req := range reqs {
			for _, wantCached := range []bool{false, true} {
				r, err := e.Place(ctx, req)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if r.Epoch != epoch || r.Cached != wantCached {
					t.Fatalf("%s: np %d: epoch %d cached %v, want epoch %d cached %v", step, req.NP, r.Epoch, r.Cached, epoch, wantCached)
				}
			}
		}
	}
	apply := func(ev Event, wantEpoch uint64, wantPurged int) {
		t.Helper()
		epoch, purged, err := e.ApplyEvent("c", &ev)
		if err != nil || epoch != wantEpoch || purged != wantPurged {
			t.Fatalf("%+v: epoch %d, purged %d, err %v; want epoch %d, purged %d", ev, epoch, purged, err, wantEpoch, wantPurged)
		}
	}
	place("fresh", 1)
	apply(Event{Type: "fail-node", Node: 1}, 2, len(reqs))
	place("node 1 failed", 2)
	apply(Event{Type: "fail-node", Node: 1}, 2, 0)
	apply(Event{Type: "fail-pus", Node: 1, PUs: []int{0}}, 2, 0)
	apply(Event{Type: "fail-pus", Node: 2, PUs: []int{0, 1}}, 3, len(reqs))
	place("node 2 PUs 0-1 failed", 3)
	apply(Event{Type: "fail-pus", Node: 2, PUs: []int{1, 0}}, 3, 0)
	for _, req := range reqs {
		r, err := e.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached || r.Epoch != 3 {
			t.Fatalf("np %d after the no-op events: cached %v epoch %d; want a hit at epoch 3", req.NP, r.Cached, r.Epoch)
		}
	}
}

// TestAddNodeChecksLikeAHostfile: an add-node event is held to the rules
// a hostfile line is. A name the cluster already has, given by the client
// or made by the node%d default, and slot counts outside [0, usable PUs]
// are refused through ApplyEvent and with 400 over HTTP, and publish
// nothing; a node at exactly its usable PU count is accepted.
func TestAddNodeChecksLikeAHostfile(t *testing.T) {
	e := New(Config{})
	registerHomogeneous(t, e, 2) // node0, node1; 16 usable PUs each
	mux := http.NewServeMux()
	e.Mount(mux)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/clusters/c/events",
		strings.NewReader(`{"type":"add-node","preset":"nehalem-ep","name":"node3","slots":16}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("add-node node3 with slots=16: status %d, want 200: %s", w.Code, w.Body.Bytes())
	}
	epoch, nodes := e.Snapshot("c").Clu.Epoch(), e.Snapshot("c").Clu.NumNodes()
	for _, c := range []struct {
		why string
		ev  Event
	}{
		{"client's name taken", Event{Type: "add-node", Preset: "nehalem-ep", Name: "node0"}},
		{"default name taken", Event{Type: "add-node", Preset: "nehalem-ep"}}, // 3 nodes, so the default is node3
		{"negative slots", Event{Type: "add-node", Preset: "nehalem-ep", Name: "neg", Slots: -7}},
		{"slots past usable PUs", Event{Type: "add-node", Preset: "nehalem-ep", Name: "big", Slots: 1 << 30}},
	} {
		if _, _, err := e.ApplyEvent("c", &c.ev); err == nil {
			t.Errorf("%s: ApplyEvent(%+v) accepted", c.why, c.ev)
		}
		body, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/clusters/c/events", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.why, w.Code, w.Body.Bytes())
		}
		if s := e.Snapshot("c").Clu; s.Epoch() != epoch || s.NumNodes() != nodes {
			t.Fatalf("%s: published epoch %d with %d nodes, want %d with %d", c.why, s.Epoch(), s.NumNodes(), epoch, nodes)
		}
	}
}

// TestRollbackLatePutNeverServed: a request that missed on snapshot A at
// epoch 2 puts its run after a rollback Register has republished the
// epoch-1 snapshot and a replayed event has reached a snapshot equal to A,
// at epoch 2 again. Epoch and content both match A, so only the
// publication tells the two apart: the late put must be dropped, the
// first request on the replayed snapshot must miss and its repeat hit on
// the run mapped there.
func TestRollbackLatePutNeverServed(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()
	req := &Request{Cluster: "test", NP: 16}
	base := e.Snapshot("test")
	fail := &Event{Type: "fail-node", Node: 1}
	if _, _, err := e.ApplyEvent("test", fail); err != nil {
		t.Fatal(err)
	}

	// The request on A: its key, and its run, mapped but not yet put.
	a, pubA := e.clusters["test"].current()
	keyA, _ := keyOf(req, pubA)
	mapped, err := e.Place(ctx, &Request{Cluster: "test", NP: 16, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Register("test", base); err != nil {
		t.Fatal(err)
	}
	epoch, _, err := e.ApplyEvent("test", fail)
	if err != nil {
		t.Fatal(err)
	}
	replay := e.Snapshot("test").Clu
	if epoch != a.Clu.Epoch() || replay.Sig() != a.Clu.Sig() {
		t.Fatalf("replayed snapshot at epoch %d (sig equal %v), want A's epoch %d and sig",
			epoch, replay.Sig() == a.Clu.Sig(), a.Clu.Epoch())
	}

	e.cache.put(newEntry(keyA, &mapped.Map)) // the late put from A
	if e.cache.get(keyA) != nil {
		t.Fatal("a put from a publication before the rollback was stored")
	}
	for _, wantCached := range []bool{false, true} {
		r, err := e.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached != wantCached || r.Epoch != epoch {
			t.Fatalf("replayed snapshot: cached=%v epoch=%d, want %v, %d", r.Cached, r.Epoch, wantCached, epoch)
		}
		if r.entry.key == keyA {
			t.Fatal("the replayed snapshot was served A's run")
		}
	}
}

// TestCachePurgesOutOfOrderKeepFloor: two Swaps publish in one order but
// may purge in the other. The later, lower purge must not lower the
// cluster's floor, so a put from the publication in between is still
// dropped and the entry above it is kept.
func TestCachePurgesOutOfOrderKeepFloor(t *testing.T) {
	c := newLRU(1<<20, nil)
	m := lruMap(16)
	c.put(newEntry(lruKey("c1", 4, 8), m))
	if purged := c.purge("c1", 5); purged != 1 {
		t.Fatalf("purge to 5: purged %d, want 1", purged)
	}
	c.put(newEntry(lruKey("c1", 5, 8), m))
	if purged := c.purge("c1", 3); purged != 0 {
		t.Fatalf("late purge to 3: purged %d, want 0", purged)
	}
	c.put(newEntry(lruKey("c1", 4, 16), m))
	if c.get(lruKey("c1", 4, 16)) != nil || c.get(lruKey("c1", 5, 8)) == nil || c.len() != 1 {
		t.Fatalf("after out-of-order purges the cache holds %d entries, want only publication 5's", c.len())
	}
}

// BenchmarkApplyEvent publishes one event per iteration on a 4096-node
// nehalem-ep engine: a fail-pus on a (node, PU) pair not failed before,
// so each one derives and swaps in a new snapshot. The engine is
// re-registered, off the clock, when the pairs run out.
func BenchmarkApplyEvent(b *testing.B) {
	const nodes = 4096
	e := New(Config{})
	registerHomogeneous(b, e, nodes)
	evs := failPUsEvents(nodes*16, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(evs) == 0 {
			b.StopTimer()
			registerHomogeneous(b, e, nodes)
			b.StartTimer()
		}
		if _, _, err := e.ApplyEvent("c", &evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}
