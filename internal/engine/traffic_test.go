package engine

import (
	"context"
	"fmt"
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
// here as allocations growing with the node count. GC is off while
// counting, so a drained scratch pool cannot add to the count; under
// -race, where sync.Pool drops Puts at random, treematch is left out.
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
	for _, policy := range trafficPolicies {
		if raceEnabled && policy == "treematch" {
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

// treematchPlaceAllocs is what a warm, uncached treematch Engine.Place
// allocates whatever its np: the core.Map, its placements and PU windows,
// and the engine's per-request records (6); the request's traffic matrix,
// its row offsets, columns and volumes (4); and the matrix's incident
// view, its offsets, peers and volumes (4).
const treematchPlaceAllocs = 14

// TestTreematchPlaceAllocsConstant pins a warm treematch Engine.Place to
// treematchPlaceAllocs at np 64 and 512: the traffic is generated and its
// incident view merged in pooled scratch, and the partitioner works in a
// pooled scratch too, so only what the request returns or keeps is
// allocated. GC is off while counting, so a drained pool cannot add to
// the count.
func TestTreematchPlaceAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := New(Config{Workers: 1})
	if err := e.Register("c", nehalemSnap(t, 256)); err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{64, 512} {
		got := placeAllocs(t, e, &Request{Cluster: "c", NP: np, Policy: "treematch", Pattern: "gtc", NoCache: true})
		t.Logf("treematch np=%d: %.0f allocs/op", np, got)
		if got != treematchPlaceAllocs {
			t.Errorf("treematch np=%d: %.0f allocs/op, want %d", np, got, treematchPlaceAllocs)
		}
	}
}

// TestTrafficPoliciesShareSnapshot runs all five traffic-aware policies
// from 8 goroutines at once on one published snapshot. Every goroutine's
// first request is the same cold one: they generate its traffic and
// merge its incident view at once, each from the pooled builder and
// incident scratch. Under -race it proves that no read path of theirs
// writes to the shared topologies and that no two of them are handed one
// scratch, and every goroutine must get the placement a lone request to
// a fresh engine gets.
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

// BenchmarkEngineTrafficMix places the traffic-aware mix lamad serves,
// uncached: the five trafficPolicies × gtc, ring and stencil2d × np 64,
// 128, …, 512 on 256×nehalem-ep, each through Engine.Place and the
// /v1/place reply encoding. One op is one request of the 120-request
// cycle.
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
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &reqs[i%len(reqs)]
		r, err := e.Place(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		buf = appendPlaceResponse(buf[:0], req.Cluster, r.Epoch, r.Cached, &r.Map)
	}
}
