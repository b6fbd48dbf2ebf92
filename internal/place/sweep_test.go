package place_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/place"
)

// lamaJobs builds one "lama" job per layout text, each mapping np ranks.
func lamaJobs(t *testing.T, c *cluster.Cluster, np int, texts ...string) []place.Job {
	t.Helper()
	lama, ok := place.Lookup("lama")
	if !ok {
		t.Fatal("lama policy not registered")
	}
	jobs := make([]place.Job, len(texts))
	for i, s := range texts {
		jobs[i] = place.Job{Policy: lama, Req: &place.Request{Cluster: c, NP: np, Layout: core.MustParseLayout(s)}}
	}
	return jobs
}

// TestSweepLayoutsMatchesSerial: a layout sweep of "lama" jobs, whose pool
// workers each reuse one Mapper across layouts, returns in layout order
// exactly what a serial run of the reference produces.
func TestSweepLayoutsMatchesSerial(t *testing.T) {
	c := nehalemCluster(t, 4)
	texts := []string{"scbnh", "ncsbh", "csbnh", "hnbcs", "bnsch", "nbsNL3L2L1ch", "shcbn", "cnbsh"}
	jobs := lamaJobs(t, c, 48, texts...)
	for _, workers := range []int{1, 3, 0} {
		maps, err := place.Sweep(context.Background(), jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(maps) != len(jobs) {
			t.Fatalf("got %d maps", len(maps))
		}
		for i, got := range maps {
			ref := &core.Mapper{Cluster: c, Layout: jobs[i].Req.Layout}
			want, err := ref.MapReference(48)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: layout %s diverged from serial reference", workers, texts[i])
			}
		}
	}
}

// TestSweepFreezesOneLiveCluster: the workers of one sweep over a live,
// never-mapped cluster all freeze its topologies at once (run it with
// -race). Afterwards every topology is frozen and refuses a mutation.
func TestSweepFreezesOneLiveCluster(t *testing.T) {
	c := nehalemCluster(t, 8)
	texts := []string{"scbnh", "ncsbh", "csbnh", "hnbcs", "bnsch", "nbsNL3L2L1ch", "shcbn", "cnbsh"}
	if _, err := place.Sweep(context.Background(), lamaJobs(t, c, 64, texts...), 4); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("node %d: SetAvailable after the sweep did not panic", i)
				}
			}()
			n.Topo.SetAvailable(hw.LevelCore, 0, false)
		}()
	}
}

// TestSweepLayoutsError: a layout without the node level is rejected even
// on a worker's reused Mapper, and an unmappable rank count fails with the
// mapper's error.
func TestSweepLayoutsError(t *testing.T) {
	c := nehalemCluster(t, 2)
	if _, err := place.Sweep(context.Background(), lamaJobs(t, c, 8, "scbnh", "scbh"), 2); err == nil {
		t.Fatal("node-less layout accepted")
	}
	big := c.TotalUsablePUs() + 1
	if _, err := place.Sweep(context.Background(), lamaJobs(t, c, big, "scbnh"), 2); !errors.Is(err, core.ErrOversubscribe) {
		t.Fatalf("err = %v, want ErrOversubscribe", err)
	}
}

// TestSweepCanceled: a canceled context skips every queued job and returns
// the context's error.
func TestSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := place.Sweep(ctx, lamaJobs(t, nehalemCluster(t, 2), 4, "csbnh", "ncsbh"), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRequestMapperChangesNothing places a chain of requests twice: once
// through one Mapper carried in every Request, once with a fresh Mapper
// per request. The chain switches clusters, layouts and options, moves on
// to a snapshot derived by failing a node, and passes the Mapper to a
// policy that ignores it. Every pair of maps must be deeply equal.
func TestRequestMapperChangesNothing(t *testing.T) {
	fig2, ok := hw.Preset("fig2")
	if !ok {
		t.Fatal("fig2 preset missing")
	}
	nehSpec, _ := hw.Preset("nehalem-ep")
	healthy := cluster.HomogeneousSnapshot(4, nehSpec)
	failed, _ := healthy.FailNode(1)
	neh, nehFailed := healthy.Cluster(), failed.Cluster()
	other := cluster.Homogeneous(3, fig2)
	mixed := cluster.FromSpecs(fig2, nehSpec)
	steps := []struct {
		c      *cluster.Cluster
		layout string
		np     int
		opts   core.Options
		policy string
	}{
		{neh, "csbnh", 40, core.Options{}, "lama"},
		{neh, "ncsbh", 40, core.Options{}, "lama"},
		{other, "ncsbh", 20, core.Options{}, "lama"},
		{neh, "csbn", 24, core.Options{PEsPerProc: 2}, "lama"},
		{nehFailed, "csbn", 24, core.Options{PEsPerProc: 2}, "lama"},
		{mixed, "", 16, core.Options{}, "lama"},
		{nehFailed, "csbnh", 100, core.Options{Oversubscribe: true}, "lama"},
		{nehFailed, "csbnh", 16, core.Options{}, "by-node"},
		{nehFailed, "nbsNL3L2L1ch", 30, core.Options{}, "lama"},
	}
	shared := &core.Mapper{}
	for i, s := range steps {
		req := place.Request{Cluster: s.c, NP: s.np, Opts: s.opts}
		if s.layout != "" {
			req.Layout = core.MustParseLayout(s.layout)
		}
		want, err := place.Place(context.Background(), s.policy, &req)
		if err != nil {
			t.Fatalf("step %d fresh: %v", i, err)
		}
		req.Mapper = shared
		got, err := place.Place(context.Background(), s.policy, &req)
		if err != nil {
			t.Fatalf("step %d reused: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s %q np=%d): reused Mapper changed the map", i, s.policy, s.layout, s.np)
		}
	}
}

// TestSweepRunsJobStages: each job's stages run, in order, on the map its
// own policy placed, so a sweep returns what Pipeline.Run returns serially
// for every job; a job without stages returns the bare placement.
func TestSweepRunsJobStages(t *testing.T) {
	c := nehalemCluster(t, 2)
	// swap exchanges the places of ranks a and b in a copy of the map.
	swap := func(a, b int) place.Stage {
		return stageFunc{name: "swap", fn: func(_ *place.Request, m *core.Map) (*core.Map, error) {
			out := *m
			out.Placements = append([]core.Placement(nil), m.Placements...)
			pa, pb := &out.Placements[a], &out.Placements[b]
			*pa, *pb = *pb, *pa
			pa.Rank, pb.Rank = a, b
			return &out, nil
		}}
	}
	bySlot, _ := place.Lookup("by-slot")
	byNode, _ := place.Lookup("by-node")
	req := &place.Request{Cluster: c, NP: 8}
	jobs := []place.Job{
		{Policy: bySlot, Stages: []place.Stage{swap(0, 5), swap(5, 7)}, Req: req},
		{Policy: byNode, Req: req},
		{Policy: byNode, Stages: []place.Stage{swap(1, 2)}, Req: req},
	}
	for _, workers := range []int{1, 3} {
		maps, err := place.Sweep(context.Background(), jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			want, err := (&place.Pipeline{Policy: j.Policy, Stages: j.Stages}).Run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(maps[i], want) {
				t.Fatalf("workers=%d job %d: sweep map differs from Pipeline.Run", workers, i)
			}
		}
		if reflect.DeepEqual(maps[1], maps[2]) {
			t.Fatal("job 2's stage did not run")
		}
	}
}
