package orte

import (
	"testing"

	"lama/internal/bind"
	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

func setup(t *testing.T, layout string, np int, policy bind.Policy, level hw.Level) (*cluster.Cluster, *core.Map, *bind.Plan) {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bind.Compute(c, m, policy, level)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, plan
}

func TestLaunchSpecificPUNoMigration(t *testing.T) {
	c, m, plan := setup(t, "scbnh", 24, bind.Specific, hw.LevelPU)
	job, err := NewRuntime(c).Launch(m, plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
	for _, p := range job.Procs {
		if p.Migrations() != 0 || p.DistinctPUs() != 1 {
			t.Fatalf("rank %d migrated under PU binding (%d migrations)",
				p.Rank, p.Migrations())
		}
		if len(p.History) != 50 {
			t.Fatalf("rank %d ran %d steps", p.Rank, len(p.History))
		}
	}
	if occ := job.MaxOccupancy(); occ != 1 {
		t.Fatalf("occupancy = %d, want 1", occ)
	}
	// One daemon per node, covering all ranks.
	if len(job.Daemons) != 2 {
		t.Fatalf("daemons = %d", len(job.Daemons))
	}
	total := 0
	for _, d := range job.Daemons {
		total += len(d.Ranks)
	}
	if total != 24 {
		t.Fatalf("daemon ranks = %d", total)
	}
}

func TestLaunchSocketBindingMigratesWithinSocket(t *testing.T) {
	c, m, plan := setup(t, "scbnh", 4, bind.Specific, hw.LevelSocket)
	job, err := NewRuntime(c).Launch(m, plan, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
	for _, p := range job.Procs {
		if p.Migrations() == 0 {
			t.Fatalf("rank %d never migrated within its 6-PU socket", p.Rank)
		}
		if p.DistinctPUs() != 6 {
			t.Fatalf("rank %d touched %d PUs, want 6", p.Rank, p.DistinctPUs())
		}
	}
}

func TestLaunchUnboundRoamsNode(t *testing.T) {
	c, m, plan := setup(t, "scbnh", 2, bind.None, hw.LevelCore)
	job, err := NewRuntime(c).Launch(m, plan, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range job.Procs {
		if p.DistinctPUs() != 12 {
			t.Fatalf("unbound rank %d touched %d PUs, want all 12", p.Rank, p.DistinctPUs())
		}
	}
	// Nil plan behaves like unbound too.
	job2, err := NewRuntime(c).Launch(m, nil, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := job2.CheckEnforcement(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchOversubscribedOccupancy(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(1, sp)
	mapper, _ := core.NewMapper(c, core.MustParseLayout("scbnh"), core.Options{Oversubscribe: true})
	m, err := mapper.Map(24) // 24 ranks on 12 PUs
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bind.Compute(c, m, bind.Specific, hw.LevelPU)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewRuntime(c).Launch(m, plan, 10)
	if err != nil {
		t.Fatal(err)
	}
	if occ := job.MaxOccupancy(); occ != 2 {
		t.Fatalf("occupancy = %d, want 2 (two ranks per PU)", occ)
	}
}

func TestLaunchErrors(t *testing.T) {
	c, m, plan := setup(t, "scbnh", 4, bind.Specific, hw.LevelPU)
	rt := NewRuntime(c)
	if _, err := rt.Launch(nil, plan, 10); err == nil {
		t.Fatal("nil map")
	}
	if _, err := rt.Launch(m, plan, 0); err == nil {
		t.Fatal("zero steps")
	}
	// Plan size mismatch.
	short := &bind.Plan{Policy: plan.Policy, Bindings: plan.Bindings[:2]}
	if _, err := rt.Launch(m, short, 10); err == nil {
		t.Fatal("short plan")
	}
	// Corrupted map.
	bad := *m
	bad.Placements = append([]core.Placement(nil), m.Placements...)
	bad.Placements[0].PUs = []int{77}
	if _, err := rt.Launch(&bad, plan, 10); err == nil {
		t.Fatal("invalid map")
	}
	// Plan that escapes the allowed set: the same cluster built with a
	// restriction the plan did not see.
	sp, _ := hw.Preset("fig2")
	restricted := cluster.Homogeneous(2, sp)
	restricted.Node(0).Topo.Restrict(hw.NewCPUSet(0))
	if _, err := NewRuntime(restricted).Launch(m, plan, 10); err == nil {
		t.Fatal("unsatisfiable plan")
	}
}

func TestMigrationHelpers(t *testing.T) {
	p := &Process{History: []int{1, 1, 2, 1}}
	if p.Migrations() != 2 || p.DistinctPUs() != 2 {
		t.Fatalf("migrations=%d distinct=%d", p.Migrations(), p.DistinctPUs())
	}
}
