package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"testing"
)

// trafficPolicies are the policies lamad serves to traffic-aware
// requests: treematch reads the pattern, the rest ignore it.
var trafficPolicies = []string{"treematch", "torus", "by-node", "scatter", "pack"}

// TestTrafficPlaceAllocsFlatInCluster pins the per-request cost of the
// traffic-aware policies to np, not to the cluster: an uncached 64-rank
// Engine.Place allocates as many objects on 4096 nodes as on 256. The
// oblivious policies read the topologies' usable-PU and thread-major
// lists and stop once np slots are filled; treematch works in pooled
// scratch. A policy that walked or copied every node again would show up
// here as allocations growing with the node count. Scatter's group list
// is pooled scratch, so it allocates exactly what by-node does. GC is off
// while counting, so a drained scratch pool cannot add to the count;
// under -race, where sync.Pool drops Puts at random, treematch and
// scatter are left out.
func TestTrafficPlaceAllocsFlatInCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4096-node cluster")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	engines := map[int]*Engine{}
	for _, nodes := range []int{256, 4096} {
		e := New(Config{})
		if err := e.Register("c", nehalemSnap(t, nodes)); err != nil {
			t.Fatal(err)
		}
		engines[nodes] = e
	}
	byPolicy := map[string]float64{}
	for _, policy := range trafficPolicies {
		if raceEnabled && (policy == "treematch" || policy == "scatter") {
			continue
		}
		allocs := map[int]float64{}
		for _, nodes := range []int{256, 4096} {
			allocs[nodes] = placeAllocs(t, engines[nodes], &Request{Cluster: "c", NP: 64, Policy: policy, Pattern: "gtc", NoCache: true})
		}
		t.Logf("%s np=64: %.0f allocs/op on 256 nodes, %.0f on 4096", policy, allocs[256], allocs[4096])
		if allocs[4096] != allocs[256] {
			t.Errorf("%s np=64: %.0f allocs/op on 4096 nodes, %.0f on 256", policy, allocs[4096], allocs[256])
		}
		byPolicy[policy] = allocs[256]
	}
	if !raceEnabled && byPolicy["scatter"] != byPolicy["by-node"] {
		t.Errorf("scatter np=64: %.0f allocs/op, by-node %.0f: its group list is not pooled", byPolicy["scatter"], byPolicy["by-node"])
	}
}

// placeAllocs counts the allocations of one warm Engine.Place: the first
// request builds the worker's mapper state and fills the pools.
func placeAllocs(t *testing.T, e *Engine, req *Request) float64 {
	t.Helper()
	place := func() {
		if _, err := e.Place(context.Background(), req); err != nil {
			t.Fatalf("%s np=%d: %v", req.Policy, req.NP, err)
		}
	}
	place()
	return testing.AllocsPerRun(20, place)
}

// treematchPlaceAllocs is what a warm, uncached treematch request
// allocates whatever its np, Engine.Place and the recycle after its reply
// together: the Response and the place.Request (2); the core.Map header,
// and the one that carries its storage back to the pool on recycle (2);
// and the traffic matrix's struct (1). Every array is pooled: the map's
// placements and PU windows, the matrix's rows, and the builder's and
// partitioner's scratch.
const treematchPlaceAllocs = 5

// TestTreematchPlaceAllocsConstant pins a warm, uncached treematch
// request, served as /v1/place serves it, to treematchPlaceAllocs at np
// 64 and 512: Engine.Place releases the traffic once the policy returns,
// and the recycle returns the map's storage. GC is off while counting, so
// a drained pool cannot add to the count.
func TestTreematchPlaceAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := New(Config{Workers: 1})
	if err := e.Register("c", nehalemSnap(t, 256)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, np := range []int{64, 512} {
		req := &Request{Cluster: "c", NP: np, Policy: "treematch", Pattern: "gtc", NoCache: true}
		serve := func() {
			r, err := e.Place(ctx, req)
			if err != nil {
				t.Fatalf("treematch np=%d: %v", np, err)
			}
			r.recycle()
		}
		serve()
		got := testing.AllocsPerRun(20, serve)
		t.Logf("treematch np=%d: %.0f allocs/op", np, got)
		if got != treematchPlaceAllocs {
			t.Errorf("treematch np=%d: %.0f allocs/op, want %d", np, got, treematchPlaceAllocs)
		}
	}
}

// TestTrafficPoliciesShareSnapshot runs all five traffic-aware policies
// from 8 goroutines at once on one published snapshot. Every goroutine's
// first request is the same cold one: they generate its traffic at once,
// each from the pooled builder and arrays. Under -race it proves that no
// read path of theirs writes to the shared topologies and that no two of
// them are handed one scratch, and every goroutine must get the placement
// a lone request to a fresh engine gets.
func TestTrafficPoliciesShareSnapshot(t *testing.T) {
	fresh := func() *Engine {
		e := New(Config{Workers: 4, QueueDepth: 64})
		if err := e.Register("c", nehalemSnap(t, 16)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ctx := context.Background()
	request := func(policy string, np int) *Request {
		return &Request{Cluster: "c", NP: np, Policy: policy, Pattern: "ring", NoCache: true}
	}
	want := map[string]string{}
	for _, policy := range trafficPolicies {
		for _, np := range []int{16, 100, 256} {
			r, err := fresh().Place(ctx, request(policy, np))
			if err != nil {
				t.Fatalf("%s np=%d: %v", policy, np, err)
			}
			want[fmt.Sprint(policy, np)] = r.Map.Render()
		}
	}
	e := fresh()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := -1; i < 3*len(trafficPolicies); i++ {
				policy, np := "treematch", 256 // the cold request all 8 send first
				if i >= 0 {
					policy = trafficPolicies[(g+i)%len(trafficPolicies)]
					np = []int{16, 100, 256}[(g+i)%3]
				}
				r, err := e.Place(ctx, request(policy, np))
				if err != nil {
					errs <- fmt.Errorf("%s np=%d: %v", policy, np, err)
					return
				}
				if r.Map.Render() != want[fmt.Sprint(policy, np)] {
					errs <- fmt.Errorf("%s np=%d: concurrent placement differs from a lone one", policy, np)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecycledRepliesMatchFresh sends uncached treematch, scatter, torus
// and no_cache lama requests from 8 goroutines at once through the
// /v1/place handler, which recycles each reply's map and traffic as soon
// as the reply is written, so the next requests build theirs on the same
// storage. Under -race it proves that no storage is handed on while a
// reply is still being encoded from it, and every reply must be byte-equal
// to the reply a fresh engine computes alone.
func TestRecycledRepliesMatchFresh(t *testing.T) {
	fresh := func() *Engine {
		e := New(Config{Workers: 4, QueueDepth: 64})
		if err := e.Register("c", nehalemSnap(t, 16)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var reqs []Request
	for _, policy := range []string{"treematch", "scatter", "torus", "lama"} {
		for _, pattern := range []string{"gtc", "ring"} {
			for _, np := range []int{16, 100, 256} {
				reqs = append(reqs, Request{Cluster: "c", NP: np, Policy: policy, Pattern: pattern, NoCache: true})
			}
		}
	}
	want := make([][]byte, len(reqs))
	for i := range reqs {
		r, err := fresh().Place(context.Background(), &reqs[i])
		if err != nil {
			t.Fatalf("%s np=%d: %v", reqs[i].Policy, reqs[i].NP, err)
		}
		want[i] = appendPlaceResponse(nil, "c", r.Epoch, r.Cached, &r.Map)
	}
	mux := http.NewServeMux()
	fresh().Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(reqs); k++ {
				i := (g*5 + k) % len(reqs)
				body, err := json.Marshal(&reqs[i])
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s np=%d: status %d, %v: %s", reqs[i].Policy, reqs[i].NP, resp.StatusCode, err, got)
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("%s %s np=%d: served reply differs from a lone fresh one", reqs[i].Policy, reqs[i].Pattern, reqs[i].NP)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkEngineTrafficMix places the traffic-aware mix lamad serves,
// uncached: the five trafficPolicies × gtc, ring and stencil2d × np 64,
// 128, …, 512 on 256×nehalem-ep, each as /v1/place serves it past the
// request decode: Engine.Place, writePlaceReply to a writer that drops the
// bytes, and the recycle. One op is one request of the 120-request cycle,
// and its B/op is what lamad allocates for it beyond the HTTP layer.
func BenchmarkEngineTrafficMix(b *testing.B) {
	e := New(Config{Workers: 1})
	if err := e.Register("c", nehalemSnap(b, 256)); err != nil {
		b.Fatal(err)
	}
	var reqs []Request
	for _, policy := range trafficPolicies {
		for _, pattern := range []string{"gtc", "ring", "stencil2d"} {
			for np := 64; np <= 512; np += 64 {
				reqs = append(reqs, Request{Cluster: "c", NP: np, Policy: policy, Pattern: pattern, NoCache: true})
			}
		}
	}
	ctx := context.Background()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &reqs[i%len(reqs)]
		r, err := e.Place(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		writePlaceReply(w, req.Cluster, r)
		r.recycle()
	}
}
