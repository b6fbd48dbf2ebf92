package engine

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/place"
)

// prefixCluster builds a small random cluster of 1-4 nodes and, half the
// time, derives a snapshot that lost a node or some PUs.
func prefixCluster(r *rand.Rand) *cluster.Snapshot {
	specs := make([]hw.Spec, 1+r.Intn(4))
	for i := range specs {
		specs[i] = hw.Spec{
			Boards: 1, Sockets: 1 + r.Intn(2), NUMAs: 1 + r.Intn(2),
			L3s: 1, L2s: 1 + r.Intn(2), L1s: 1, Cores: 1 + r.Intn(3), PUs: 1 + r.Intn(2),
			ThreadMajorOS: r.Intn(2) == 1,
		}
	}
	s := cluster.SnapshotOf(cluster.FromSpecs(specs...))
	if r.Intn(2) == 0 {
		node := r.Intn(s.NumNodes())
		if r.Intn(2) == 0 && s.NumNodes() > 1 {
			s, _ = s.FailNode(node)
		} else {
			s, _ = s.FailPUs(node, hw.NewCPUSet(r.Intn(4), r.Intn(8)))
		}
	}
	return s
}

// prefixLayout is a random layout with the node level.
func prefixLayout(r *rand.Rand) string {
	perm := r.Perm(hw.NumLevels)
	levels := make([]hw.Level, 0, hw.NumLevels)
	hasNode := false
	for _, p := range perm[:1+r.Intn(hw.NumLevels)] {
		levels = append(levels, hw.Level(p))
		hasNode = hasNode || hw.Level(p) == hw.LevelMachine
	}
	if !hasNode {
		levels[r.Intn(len(levels))] = hw.LevelMachine
	}
	l, err := core.NewLayout(levels...)
	if err != nil {
		panic(err)
	}
	return l.String()
}

// storedRanks is the length of the run stored on the request's key, 0
// when there is none.
func storedRanks(e *Engine, req *Request) int {
	_, pub := e.clusters[req.Cluster].current()
	key, _ := keyOf(req, pub)
	if ent := e.cache.get(key); ent != nil {
		return ent.m.NumRanks()
	}
	return 0
}

// prefixBaselines are the oblivious baselines marked place.PrefixClosed.
var prefixBaselines = []string{"by-slot", "by-node", "pack", "scatter", "random", "plane", "torus"}

// TestQuickEnginePrefixMatchesReference is the oracle of the prefix-closed
// cache. On random clusters, half of them after a failure, with and
// without oversubscription and at one or two PUs a rank, one engine is
// asked for every np from 1 to N in rising order, so that some requests
// miss and map a doubled run and the rest are served from a stored run's
// first np ranks, then from N back down to 1, all served from the
// longest run. Every answer, Sweeps and SweepEnds included, must equal
// a fresh MapReference(np) for the LAMA and a fresh place.Place at np for
// every marked baseline; a request neither can place must fail with the
// same error text.
func TestQuickEnginePrefixMatchesReference(t *testing.T) {
	var prefixHits, misses int64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		snap := prefixCluster(r)
		c := snap.Cluster()
		req := Request{
			Cluster:       "q",
			Layout:        prefixLayout(r),
			Oversubscribe: r.Intn(2) == 1,
			PEsPerProc:    1 + r.Intn(2),
		}
		n := 1 + r.Intn(min(2*c.TotalUsablePUs(), 200)+1)
		reg := obs.NewRegistry()
		e := New(Config{Workers: 1, Obs: &obs.Observer{Metrics: reg}})
		if err := e.Register("q", &Snapshot{Clu: snap}); err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Oversubscribe: req.Oversubscribe, PEsPerProc: req.PEsPerProc}
		for _, policy := range append([]string{"lama"}, prefixBaselines...) {
			req.Policy = policy
			for i := 1; i <= 2*n; i++ {
				np := i
				if i > n {
					np = 2*n + 1 - i
				}
				req.NP = np
				got, errGot := e.Place(context.Background(), &req)
				var want *core.Map
				var errWant error
				if policy == "lama" {
					mp := &core.Mapper{Cluster: c, Layout: core.MustParseLayout(req.Layout), Opts: opts}
					want, errWant = mp.MapReference(np)
				} else {
					want, errWant = place.Place(context.Background(), policy, &place.Request{Cluster: c, NP: np, Opts: opts})
				}
				if errGot != nil || errWant != nil {
					if errGot == nil || errWant == nil || errGot.Error() != errWant.Error() {
						t.Logf("seed %d %s layout %s np %d: engine err %v, fresh err %v", seed, policy, req.Layout, np, errGot, errWant)
						return false
					}
					continue
				}
				if !reflect.DeepEqual(&got.Map, want) {
					t.Logf("seed %d %s layout %s np %d of %d (cached %v): served map differs from a fresh one", seed, policy, req.Layout, np, n, got.Cached)
					return false
				}
			}
		}
		prefixHits += reg.Counter("lama_engine_cache_prefix_hits_total").Value()
		misses += reg.Counter("lama_engine_cache_misses_total").Value()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	t.Logf("%d prefix hits, %d misses", prefixHits, misses)
	if prefixHits == 0 || misses == 0 {
		t.Fatalf("stream too narrow: %d prefix hits, %d misses", prefixHits, misses)
	}
}

// TestEngineRejectsNonPositiveNP: np 0 or below is refused by Engine.Place
// itself, even with a stored run on the key that could serve "its first 0
// ranks", and counts as neither hit nor miss.
func TestEngineRejectsNonPositiveNP(t *testing.T) {
	e, reg := newTestEngine(t, Config{})
	ctx := context.Background()
	if _, err := e.Place(ctx, &Request{Cluster: "test", NP: 16}); err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{0, -1, MaxNP + 1} {
		if r, err := e.Place(ctx, &Request{Cluster: "test", NP: np}); err == nil || statusFor(err) != http.StatusBadRequest {
			t.Fatalf("np %d: response %+v, err %v; want a 400-class error", np, r, err)
		}
	}
	hits := reg.Counter("lama_engine_cache_hits_total").Value()
	misses := reg.Counter("lama_engine_cache_misses_total").Value()
	if hits != 0 || misses != 1 {
		t.Fatalf("hits %d, misses %d after rejected requests; want 0, 1", hits, misses)
	}
}

// TestEngineKeyFoldsDefaults: a request spelling out the defaults is the
// same request as one leaving them out, so a smaller np spelled out is a
// prefix hit on the bare request's run. Its bytes are a no_cache reply's
// apart from "cached". A malformed policy or layout still fails before
// anything is stored.
func TestEngineKeyFoldsDefaults(t *testing.T) {
	e, reg := newTestEngine(t, Config{})
	mux := http.NewServeMux()
	e.Mount(mux)
	serve := func(body string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.Bytes())
		}
		return w.Body.Bytes()
	}
	serve(`{"cluster":"test","np":64}`)
	hit := serve(`{"cluster":"test","np":32,"policy":"lama","layout":"csbnh","pes_per_proc":1}`)
	fresh := serve(`{"cluster":"test","np":32,"no_cache":true}`)
	if want := bytes.Replace(fresh, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
		t.Fatalf("spelled-out request:\n%s\nwant the no_cache reply with \"cached\":true:\n%s", hit, want)
	}
	if n := reg.Counter("lama_engine_cache_prefix_hits_total").Value(); n != 1 {
		t.Fatalf("prefix hits %d, want 1", n)
	}
	// The LAMA reads no traffic: pattern and bytes leave its key alone.
	serve(`{"cluster":"test","np":32,"pattern":"ring","bytes":5}`)
	if n := reg.Counter("lama_engine_cache_prefix_hits_total").Value(); n != 2 {
		t.Fatalf("prefix hits %d after a pattern-carrying request, want 2", n)
	}
	for _, req := range []Request{
		{Cluster: "test", NP: 8, Policy: "no-such"},
		{Cluster: "test", NP: 8, Pattern: "no-such"},
		{Cluster: "test", NP: 8, Layout: "csbnhx"},
		{Cluster: "test", NP: 8, Layout: "csbh"},
	} {
		if _, err := e.Place(context.Background(), &req); err == nil {
			t.Fatalf("%+v: accepted", req)
		}
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries after malformed requests, want 1", n)
	}
}

// TestEngineMissDoubles pins the growth rule. A miss past a stored run of
// L ranks maps min(2L, usable PUs / pes) ranks, or np if more; the longer
// run replaces the entry and serves the request its prefix. A failed run
// stores nothing, and its error is the one an uncached request gets.
func TestEngineMissDoubles(t *testing.T) {
	e, reg := newTestEngine(t, Config{}) // 4 nehalem-ep nodes: 64 usable PUs
	ctx := context.Background()
	for _, step := range []struct {
		np, stored int
		cached     bool
	}{
		{np: 10, stored: 10},
		{np: 11, stored: 20},
		{np: 15, stored: 20, cached: true},
		{np: 21, stored: 40},
		{np: 41, stored: 64}, // capped at the usable PUs
		{np: 64, stored: 64, cached: true},
		{np: 70, stored: 64}, // past capacity: fails, stores nothing
	} {
		req := Request{Cluster: "test", NP: step.np}
		r, err := e.Place(ctx, &req)
		switch {
		case step.np > 64:
			req.NoCache = true
			_, errFresh := e.Place(ctx, &req)
			if err == nil || errFresh == nil || err.Error() != errFresh.Error() {
				t.Fatalf("np %d past capacity: %v; uncached %v", step.np, err, errFresh)
			}
		case err != nil:
			t.Fatalf("np %d: %v", step.np, err)
		case r.Cached != step.cached || r.Map.NumRanks() != step.np:
			t.Fatalf("np %d: cached %v with %d ranks, want %v with %d", step.np, r.Cached, r.Map.NumRanks(), step.cached, step.np)
		}
		if got := storedRanks(e, &req); got != step.stored {
			t.Fatalf("after np %d the entry holds %d ranks, want %d", step.np, got, step.stored)
		}
	}
	if n := e.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	if n := reg.Counter("lama_engine_cache_misses_total").Value(); n != 4 {
		t.Fatalf("misses %d, want 4", n)
	}
}

// TestEngineDoubledRunFailsFallsBack: at two PUs a rank on a core-leaf
// layout, a node whose cores lost a PU each holds fewer ranks than its
// usable PUs / 2. The doubled run then fails, and the request is
// answered, and stored, from a run of its own np; np past what the cores
// hold fails as the reference does.
func TestEngineDoubledRunFailsFallsBack(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep") // 8 cores of 2 PUs
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	// One PU off each of three cores: 13 usable PUs, so usable/pes is 6,
	// but only the 5 whole cores hold a rank.
	snap, _ := cluster.SnapshotOf(cluster.Homogeneous(1, sp)).FailPUs(0, hw.NewCPUSet(0, 2, 4))
	e := New(Config{})
	if err := e.Register("f", &Snapshot{Clu: snap}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mp := &core.Mapper{Cluster: snap.Cluster(), Layout: core.MustParseLayout("csbn"), Opts: core.Options{PEsPerProc: 2}}
	req := Request{Cluster: "f", Layout: "csbn", PEsPerProc: 2}
	for _, np := range []int{3, 4, 5, 6} {
		req.NP = np
		r, err := e.Place(ctx, &req)
		want, errRef := mp.MapReference(np)
		if err != nil || errRef != nil {
			if err == nil || errRef == nil || err.Error() != errRef.Error() || np != 6 {
				t.Fatalf("np %d: %v, reference %v", np, err, errRef)
			}
			continue
		}
		if !reflect.DeepEqual(&r.Map, want) {
			t.Fatalf("np %d: served map differs from MapReference", np)
		}
		if got := storedRanks(e, &req); got != np {
			t.Fatalf("np %d: the entry holds %d ranks, want %d", np, got, np)
		}
	}
}
