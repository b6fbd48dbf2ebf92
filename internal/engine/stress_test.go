package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"

	_ "lama/internal/place/all"
)

// TestSwapUnderLoad hammers Place from several readers while a writer
// continuously fails and adds nodes through Swap, and checks the
// engine's staleness contract: once Swap has returned for epoch E, no
// later Place may serve a placement (cached or fresh) from an epoch
// before E. The writer stores a lower bound AFTER each Swap returns;
// readers load the bound BEFORE calling Place, so any response below the
// bound is a genuine stale leak (a cache entry that survived the purge or
// a snapshot read racing the publish). Every hit must be served from a
// run stored at the hit's epoch: here one Register at epoch 1 and then one
// Swap per epoch publish every snapshot, so each publication's number is
// its epoch. Run with -race this also shakes the
// clusterEntry and LRU locking, and a longer run's put racing the purge.
func TestSwapUnderLoad(t *testing.T) {
	const (
		nodes   = 4
		swaps   = 150
		readers = 4
	)
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	e := New(Config{Workers: 4, QueueDepth: 256})
	if err := e.Register("stress", &Snapshot{Clu: cluster.SnapshotOf(cluster.Homogeneous(nodes, sp))}); err != nil {
		t.Fatal(err)
	}

	var bound atomic.Uint64 // epoch lower bound, stored only after Swap returns
	bound.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: alternately fail the lowest healthy node and add a healthy
	// node, so usable nodes never drop below nodes-1 and every epoch is
	// placeable. Each derivation chains off the published snapshot, and
	// each fails a node that still has usable PUs, so none is a no-op.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < swaps; i++ {
			cur := e.Snapshot("stress")
			var next *cluster.Snapshot
			if i%2 == 0 {
				target := i / 2
				s, ok := cur.Clu.FailNode(target)
				if !ok || s == cur.Clu {
					t.Errorf("swap %d: FailNode(%d) refused", i, target)
					return
				}
				next = s
			} else {
				next = cur.Clu.AppendNode(&cluster.Node{Name: "spare", Topo: hw.New(sp)})
			}
			if _, err := e.Swap("stress", &Snapshot{Clu: next}); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			bound.Store(next.Epoch())
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for np := 1; ; np = np%8 + 1 {
				select {
				case <-stop:
					return
				default:
				}
				floor := bound.Load()
				resp, err := e.Place(ctx, &Request{Cluster: "stress", NP: np})
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue // shed under load is the documented behavior
					}
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if resp.Epoch < floor {
					t.Errorf("reader %d: stale placement: epoch %d below published bound %d (cached=%v)",
						r, resp.Epoch, floor, resp.Cached)
					return
				}
				if resp.Cached && resp.entry.key.pub != resp.Epoch {
					t.Errorf("reader %d: hit at epoch %d serves a run stored at publication %d",
						r, resp.Epoch, resp.entry.key.pub)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
