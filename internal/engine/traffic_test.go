package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// trafficPolicies are the policies lamad serves to traffic-aware
// requests: treematch reads the pattern, the rest ignore it.
var trafficPolicies = []string{"treematch", "torus", "by-node", "scatter", "pack"}

// TestTrafficPlaceAllocsFlatInCluster pins the per-request cost of the
// pattern-oblivious policies to np, not to the cluster: an uncached
// 64-rank Engine.Place allocates as many objects on 4096 nodes as on 256.
// Each policy reads the topologies' usable-PU lists and stops once np
// slots are filled, so a policy that walked or copied every node again
// would show up here as allocations growing with the node count.
func TestTrafficPlaceAllocsFlatInCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4096-node cluster")
	}
	ctx := context.Background()
	engines := map[int]*Engine{}
	for _, nodes := range []int{256, 4096} {
		e := New(Config{})
		if err := e.Register("c", nehalemSnap(t, nodes)); err != nil {
			t.Fatal(err)
		}
		engines[nodes] = e
	}
	for _, policy := range []string{"pack", "scatter", "torus", "by-node"} {
		allocs := map[int]float64{}
		for nodes, e := range engines {
			req := &Request{Cluster: "c", NP: 64, Policy: policy, Pattern: "gtc", NoCache: true}
			place := func() {
				if _, err := e.Place(ctx, req); err != nil {
					t.Fatalf("%s on %d nodes: %v", policy, nodes, err)
				}
			}
			place() // the worker's first request builds its mapper state
			allocs[nodes] = testing.AllocsPerRun(20, place)
		}
		t.Logf("%s np=64: %.0f allocs/op on 256 nodes, %.0f on 4096", policy, allocs[256], allocs[4096])
		if allocs[4096] != allocs[256] {
			t.Errorf("%s np=64: %.0f allocs/op on 4096 nodes, %.0f on 256", policy, allocs[4096], allocs[256])
		}
	}
}

// TestTrafficPoliciesShareSnapshot runs all five traffic-aware policies
// from 8 goroutines at once on one published snapshot. Under -race it
// proves that no read path of theirs writes to the shared topologies,
// and every goroutine must get the placement a lone request gets.
func TestTrafficPoliciesShareSnapshot(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 64})
	if err := e.Register("c", nehalemSnap(t, 16)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	request := func(policy string, np int) *Request {
		return &Request{Cluster: "c", NP: np, Policy: policy, Pattern: "ring", NoCache: true}
	}
	want := map[string]string{}
	for _, policy := range trafficPolicies {
		for _, np := range []int{16, 100, 256} {
			r, err := e.Place(ctx, request(policy, np))
			if err != nil {
				t.Fatalf("%s np=%d: %v", policy, np, err)
			}
			want[fmt.Sprint(policy, np)] = r.Map.Render()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(trafficPolicies); i++ {
				policy := trafficPolicies[(g+i)%len(trafficPolicies)]
				np := []int{16, 100, 256}[(g+i)%3]
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
