package bind

import (
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

func fig2Map(t *testing.T, layout string, np int) (*cluster.Cluster, *core.Map) {
	t.Helper()
	sp, _ := hw.Preset("fig2") // 2 sockets x 3 cores x 2 PUs
	c := cluster.Homogeneous(2, sp)
	m, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := m.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return c, mp
}

func TestPolicyNone(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 4)
	plan, err := Compute(c, m, None, hw.LevelCore)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bindings {
		if b.CPUs != nil || b.Width != 0 {
			t.Fatalf("None binding restricted: %+v", b)
		}
	}
	if err := plan.Check(c); err != nil {
		t.Fatal(err)
	}
	if plan.Policy.String() != "none" {
		t.Fatal("policy name")
	}
}

func TestPolicyLimited(t *testing.T) {
	c, m := fig2Map(t, "csnh", 4) // 4 ranks packed on node0: PUs 0,2,4,6
	plan, err := Compute(c, m, Limited, hw.LevelCore)
	if err != nil {
		t.Fatal(err)
	}
	want := hw.NewCPUSet(0, 2, 4, 6)
	for _, b := range plan.Bindings {
		if !b.CPUs.Equal(want) {
			t.Fatalf("limited set = %s, want %s", b.CPUs, want)
		}
		if b.Width != 4 {
			t.Fatalf("width = %d", b.Width)
		}
	}
}

func TestPolicySpecificCore(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 24)
	plan, err := Compute(c, m, Specific, hw.LevelCore)
	if err != nil {
		t.Fatal(err)
	}
	// Binding width at core level is 2 (two hwthreads per core).
	for _, b := range plan.Bindings {
		if b.Width != 2 {
			t.Fatalf("rank %d width = %d, want 2", b.Rank, b.Width)
		}
	}
	// Two ranks per core (the two hyperthread passes) overlap at core
	// granularity; each overlapping pair shares exactly a core's 2 PUs.
	if n := sharedPUs(plan); n != 24 { // 12 cores, one pair each
		t.Fatalf("shared PUs = %d, want 24", n)
	}
	if err := plan.Check(c); err != nil {
		t.Fatal(err)
	}
}

// sharedPUs counts the claims on a (node, PU) beyond its first binding.
func sharedPUs(plan *Plan) int {
	seen := map[[2]int]bool{}
	n := 0
	for _, b := range plan.Bindings {
		for _, pu := range b.CPUs.Members() {
			k := [2]int{b.Node, pu}
			if seen[k] {
				n++
			}
			seen[k] = true
		}
	}
	return n
}

func TestPolicySpecificPUNoOverlap(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 24)
	plan, err := Compute(c, m, Specific, hw.LevelPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bindings {
		if b.Width != 1 {
			t.Fatalf("PU width = %d", b.Width)
		}
	}
	if n := sharedPUs(plan); n != 0 {
		t.Fatalf("PU-level bindings share %d PUs", n)
	}
}

func TestPolicySpecificSocketWidth(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 4)
	plan, err := Compute(c, m, Specific, hw.LevelSocket)
	if err != nil {
		t.Fatal(err)
	}
	// A socket has 3 cores x 2 threads = 6 PUs: the paper's "binding
	// width of the N smallest processing units in that socket".
	for _, b := range plan.Bindings {
		if b.Width != 6 {
			t.Fatalf("socket width = %d, want 6", b.Width)
		}
	}
}

func TestSpecificFinerThanLeaf(t *testing.T) {
	// Map at core granularity ("scn"), bind to hwthread: the binding uses
	// the claimed PUs, not the whole core.
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(1, sp)
	mapper, _ := core.NewMapper(c, core.MustParseLayout("scn"), core.Options{})
	m, err := mapper.Map(12)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compute(c, m, Specific, hw.LevelPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bindings {
		if b.Width != 1 {
			t.Fatalf("width = %d, want 1 (claimed PU only)", b.Width)
		}
	}
	if n := sharedPUs(plan); n != 0 {
		t.Fatalf("bindings share %d PUs", n)
	}
}

func TestBindingRespectsRestriction(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(1, sp)
	c.Node(0).Topo.Restrict(hw.CPUSetRange(0, 5)) // socket 0 only
	mapper, _ := core.NewMapper(c, core.MustParseLayout("scbnh"), core.Options{})
	m, err := mapper.Map(6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compute(c, m, Specific, hw.LevelSocket)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Check(c); err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bindings {
		if !b.CPUs.IsSubset(hw.CPUSetRange(0, 5)) {
			t.Fatalf("binding %s escapes restriction", b.CPUs)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 2)
	if _, err := Compute(c, nil, None, hw.LevelCore); err == nil {
		t.Fatal("nil map")
	}
	if _, err := Compute(c, &core.Map{}, None, hw.LevelCore); err == nil {
		t.Fatal("empty map")
	}
	if _, err := Compute(c, m, Policy(9), hw.LevelCore); err == nil {
		t.Fatal("unknown policy")
	}
	if _, err := Compute(c, m, Specific, hw.Level(99)); err == nil {
		t.Fatal("invalid level")
	}
	// Corrupt node index.
	bad := *m
	bad.Placements = append([]core.Placement(nil), m.Placements...)
	bad.Placements[0].Node = 42
	if _, err := Compute(c, &bad, Specific, hw.LevelCore); err == nil {
		t.Fatal("unknown node")
	}
	if !strings.HasPrefix(Policy(9).String(), "policy(") {
		t.Fatal("policy string")
	}
}

func TestCheckDetectsEscape(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 2)
	plan, err := Compute(c, m, Specific, hw.LevelPU)
	if err != nil {
		t.Fatal(err)
	}
	// The same cluster built with a restriction the plan did not see.
	sp, _ := hw.Preset("fig2")
	restricted := cluster.Homogeneous(2, sp)
	restricted.Node(0).Topo.Restrict(hw.NewCPUSet(11))
	if err := plan.Check(restricted); err == nil {
		t.Fatal("Check should detect escape")
	}
	plan.Bindings[0].Node = 42
	if err := plan.Check(c); err == nil {
		t.Fatal("Check should detect unknown node")
	}
}

func TestComputeWidth(t *testing.T) {
	c, m := fig2Map(t, "scbnh", 4) // fig2: 2 sockets x 3 cores x 2 threads
	// "2c": each rank bound to its core plus the next sibling core.
	plan, err := ComputeWidth(c, m, hw.LevelCore, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bindings {
		if b.Width != 4 { // 2 cores x 2 threads
			t.Fatalf("rank %d width = %d, want 4", b.Rank, b.Width)
		}
	}
	if err := plan.Check(c); err != nil {
		t.Fatal(err)
	}
	// Clamping: binding 5 cores at the last core of a 3-core socket only
	// reaches the socket edge. Rank mapped to core 2 of socket 0
	// ("scbnh" rank 4 = socket 0 core 2).
	plan5, err := ComputeWidth(c, m, hw.LevelCore, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is core 0: 3 cores available in socket -> 6 PUs.
	if plan5.Bindings[0].Width != 6 {
		t.Fatalf("clamped width = %d, want 6", plan5.Bindings[0].Width)
	}
	// Errors.
	if _, err := ComputeWidth(c, m, hw.LevelCore, 0); err == nil {
		t.Fatal("count 0")
	}
	if _, err := ComputeWidth(c, m, hw.Level(99), 1); err == nil {
		t.Fatal("bad level")
	}
	if _, err := ComputeWidth(c, &core.Map{}, hw.LevelCore, 1); err == nil {
		t.Fatal("empty map")
	}
	// Width 1 equals plain Specific.
	p1, err := ComputeWidth(c, m, hw.LevelCore, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Compute(c, m, Specific, hw.LevelCore)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Bindings {
		if !p1.Bindings[i].CPUs.Equal(ps.Bindings[i].CPUs) {
			t.Fatalf("width-1 differs from Specific at rank %d", i)
		}
	}
}

func TestParseWidthSpec(t *testing.T) {
	cases := map[string]struct {
		level hw.Level
		count int
	}{
		"1c":  {hw.LevelCore, 1},
		"2s":  {hw.LevelSocket, 2},
		"4h":  {hw.LevelPU, 4},
		"c":   {hw.LevelCore, 1},
		"2N":  {hw.LevelNUMA, 2},
		"1L2": {hw.LevelL2, 1},
	}
	for text, want := range cases {
		level, count, err := ParseWidthSpec(text)
		if err != nil || level != want.level || count != want.count {
			t.Errorf("ParseWidthSpec(%q) = %v,%d,%v", text, level, count, err)
		}
	}
	for _, bad := range []string{"", "2", "0c", "2x", "n", "2n", "c2"} {
		if _, _, err := ParseWidthSpec(bad); err == nil {
			t.Errorf("ParseWidthSpec(%q) should fail", bad)
		}
	}
}
