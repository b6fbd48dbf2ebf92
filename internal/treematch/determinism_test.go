package treematch

import (
	"fmt"
	"sync"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/hw"
)

// TestMapDeterministicAcrossRuns is the satellite-2 regression: repeated
// runs on identical inputs must produce identical placements. The greedy
// partitioner's tie-breaking must come from scanning ranks in ascending
// order, never from map iteration order, so a tie-heavy matrix (uniform
// all-to-all, where every pick is a tie) is the stressor.
func TestMapDeterministicAcrossRuns(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	c := cluster.Homogeneous(4, sp)
	const np = 48
	patterns := map[string]*commpat.Matrix{
		"alltoall-ties": commpat.AllToAll(np, 1<<20),
		"gtc":           commpat.GTC(np, 1<<20),
		"ring":          commpat.Ring(np, 1<<20),
	}
	for name, tm := range patterns {
		ref, err := Map(c, tm, np)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refText := ref.Render()
		for run := 0; run < 10; run++ {
			m, err := Map(c, tm, np)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if got := m.Render(); got != refText {
				t.Fatalf("%s run %d: placement differs from run 0:\n%s\nvs\n%s",
					name, run, got, refText)
			}
		}
	}
}

// TestMapConcurrentMatchesSerial runs Map from 8 goroutines at once over
// jobs of different sizes, so pooled scratches pass between goroutines
// and from larger jobs to smaller ones. Every placement must equal the
// one a lone call made; under -race it also proves the goroutines share
// nothing but the read-only inputs and the pool.
func TestMapConcurrentMatchesSerial(t *testing.T) {
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	c := cluster.Homogeneous(8, sp)
	c.Node(2).Topo.Offline(hw.NewCPUSet(0, 5, 9))
	type job struct {
		tm   *commpat.Matrix
		want string
	}
	var jobs []job
	for _, np := range []int{7, 48, 125} {
		for _, p := range commpat.Patterns() {
			tm := p.Gen(np, 1<<20)
			m, err := Map(c, tm, np)
			if err != nil {
				t.Fatalf("%s np=%d: %v", p.Name, np, err)
			}
			jobs = append(jobs, job{tm, m.Render()})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(g*5+i)%len(jobs)]
				m, err := Map(c, j.tm, j.tm.Ranks())
				if err == nil && m.Render() != j.want {
					err = fmt.Errorf("np=%d: concurrent placement differs from a lone one", j.tm.Ranks())
				}
				if err != nil {
					errs <- err
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
