package place_test

import (
	"context"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/place"
	_ "lama/internal/place/all"
	"lama/internal/rankfile"
)

// builtins is the full registered strategy space this PR unifies.
var builtins = []string{
	"lama", "by-slot", "by-node", "pack", "scatter",
	"random", "plane", "rankfile", "torus", "treematch",
}

func nehalemCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	return cluster.Homogeneous(nodes, sp)
}

// requestFor builds a Request that satisfies every policy's input needs on
// the given cluster: traffic for treematch, synthesized rankfile text for
// rankfile, and zero torus dims (the policy derives a fitting shape).
func requestFor(t *testing.T, c *cluster.Cluster, np int) *place.Request {
	t.Helper()
	req := &place.Request{
		Cluster: c, NP: np,
		Traffic: commpat.Ring(np, 1<<20),
		Seed:    7,
	}
	base, err := place.Place(context.Background(), "by-slot", &place.Request{Cluster: c, NP: np})
	if err != nil {
		t.Fatalf("by-slot for rankfile synthesis: %v", err)
	}
	f, err := rankfile.FromMap(base)
	if err != nil {
		t.Fatal(err)
	}
	req.RankfileText = rankfile.Format(f)
	return req
}

func TestNamesListEveryBuiltin(t *testing.T) {
	names := place.Names()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range builtins {
		if !seen[want] {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	// "lama" registers from within place itself, ahead of the linked
	// strategy packages, so it must lead the registration order.
	if len(names) == 0 || names[0] != "lama" {
		t.Errorf("Names()[0] = %v, want lama first", names)
	}
}

// TestPrefixClosedMarkers pins which policies may be served a prefix of
// a longer run: the LAMA and the oblivious baselines, which the engine's
// prefix quick-check holds to a fresh run at every np. treematch must
// never be, because its traffic depends on np; rankfile places what its
// file lists.
func TestPrefixClosedMarkers(t *testing.T) {
	want := map[string]bool{
		"lama": true, "by-slot": true, "by-node": true, "pack": true,
		"scatter": true, "random": true, "plane": true, "torus": true,
	}
	for _, name := range builtins {
		p, _ := place.Lookup(name)
		if _, closed := p.(place.PrefixClosed); closed != want[name] {
			t.Errorf("%s: PrefixClosed %v, want %v", name, closed, want[name])
		}
	}
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := place.Place(context.Background(), "no-such-policy", &place.Request{})
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if !strings.Contains(err.Error(), "lama") || !strings.Contains(err.Error(), "treematch") {
		t.Errorf("unknown-policy error should list registered names, got %v", err)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	c := nehalemCluster(t, 2)
	if _, err := place.Place(context.Background(), "by-slot", &place.Request{Cluster: c}); err == nil {
		t.Error("NP=0 accepted")
	}
	if _, err := place.Place(context.Background(), "by-slot", &place.Request{NP: 4}); err == nil {
		t.Error("nil cluster accepted")
	}
}

// TestRunUniformObservation is the satellite-1 contract at the place
// layer: a policy with no instrumentation of its own (by-slot) still
// yields the "place" span, the "map"/"done" event, and the mapping
// metrics when run through the registry.
func TestRunUniformObservation(t *testing.T) {
	c := nehalemCluster(t, 2)
	sink := obs.NewMemorySink()
	o := &obs.Observer{
		Sink: sink, Metrics: obs.NewRegistry(), Phases: obs.NewPhaseTimer(),
		Clock: func() int64 { return 0 },
	}
	m, err := place.Place(context.Background(), "by-slot", &place.Request{
		Cluster: c, NP: 8, Opts: core.Options{Obs: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks() != 8 {
		t.Fatalf("placed %d ranks, want 8", m.NumRanks())
	}
	names := sink.Names("map")
	if len(names) != 1 || names[0] != "map/done" {
		t.Errorf("map events = %v, want [map/done]", names)
	}
	if got := o.Metrics.Counter("lama_maps_total").Value(); got != 1 {
		t.Errorf("lama_maps_total = %d, want 1", got)
	}
	if got := o.Metrics.Counter("lama_ranks_placed_total").Value(); got != 8 {
		t.Errorf("lama_ranks_placed_total = %d, want 8", got)
	}
	spans := o.Phases.Spans()
	if len(spans) != 1 || spans[0].Name != "place" {
		t.Errorf("spans = %v, want one place span", spans)
	}
}

func TestRunStallEmitsStallEvent(t *testing.T) {
	c := nehalemCluster(t, 2)
	sink := obs.NewMemorySink()
	o := &obs.Observer{Sink: sink, Metrics: obs.NewRegistry(), Clock: func() int64 { return 0 }}
	// treematch without a traffic matrix is a policy-level failure.
	_, err := place.Place(context.Background(), "treematch", &place.Request{
		Cluster: c, NP: 4, Opts: core.Options{Obs: o},
	})
	if err == nil {
		t.Fatal("expected treematch to fail without traffic")
	}
	names := sink.Names("map")
	if len(names) != 1 || names[0] != "map/stall" {
		t.Errorf("map events = %v, want [map/stall]", names)
	}
	if got := o.Metrics.Counter("lama_map_stalls_total").Value(); got != 1 {
		t.Errorf("lama_map_stalls_total = %d, want 1", got)
	}
}

// TestCrossPolicyProperties is satellite 3: every registered policy, on a
// homogeneous cluster, a heterogeneous cluster, and a cluster with a
// failed node, must place ranks 0..np-1 exactly once, only on usable PUs,
// and without PU sharing (oversubscription was not requested).
func TestCrossPolicyProperties(t *testing.T) {
	bgp, ok := hw.Preset("bgp-node")
	if !ok {
		t.Fatal("bgp-node preset missing")
	}
	neh, _ := hw.Preset("nehalem-ep")

	failed := nehalemCluster(t, 4)
	if !failed.Node(1).Topo.SetAvailable(hw.LevelMachine, 0, false) {
		t.Fatal("SetAvailable refused")
	}
	clusters := []struct {
		name string
		c    *cluster.Cluster
	}{
		{"homogeneous", nehalemCluster(t, 4)},
		{"heterogeneous", cluster.FromSpecs(neh, bgp, neh)},
		{"post-failnode", failed},
	}
	const np = 8
	for _, tc := range clusters {
		t.Run(tc.name, func(t *testing.T) {
			req := requestFor(t, tc.c, np)
			for _, name := range place.Names() {
				m, err := place.Place(context.Background(), name, req)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if err := m.Validate(tc.c); err != nil {
					t.Errorf("%s: invalid map: %v", name, err)
					continue
				}
				if m.NumRanks() != np {
					t.Errorf("%s: %d ranks, want %d", name, m.NumRanks(), np)
				}
				if m.Oversubscribed() {
					t.Errorf("%s: oversubscribed without request", name)
				}
				type key struct{ node, pu int }
				claimed := map[key]int{}
				for _, p := range m.Placements {
					for _, pu := range p.PUs {
						claimed[key{p.Node, pu}]++
					}
				}
				for k, n := range claimed {
					if n > 1 {
						t.Errorf("%s: PU %v claimed %d times", name, k, n)
					}
				}
			}
		})
	}
}

// TestPolicyAvoidsFailedNode sharpens the post-failure property: no rank
// may land on the failed node at all.
func TestPolicyAvoidsFailedNode(t *testing.T) {
	c := nehalemCluster(t, 4)
	if !c.Node(2).Topo.SetAvailable(hw.LevelMachine, 0, false) {
		t.Fatal("SetAvailable refused")
	}
	req := requestFor(t, c, 12)
	for _, name := range place.Names() {
		m, err := place.Place(context.Background(), name, req)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, p := range m.Placements {
			if p.Node == 2 {
				t.Errorf("%s: rank %d placed on failed node 2", name, p.Rank)
			}
		}
	}
}

func TestPipelineRunsStagesInOrder(t *testing.T) {
	c := nehalemCluster(t, 2)
	var order []string
	mk := func(name string) place.Stage {
		return stageFunc{name: name, fn: func(req *place.Request, m *core.Map) (*core.Map, error) {
			order = append(order, name)
			return m, nil
		}}
	}
	pol, _ := place.Lookup("by-slot")
	o := &obs.Observer{Phases: obs.NewPhaseTimer()}
	pipe := place.Pipeline{Policy: pol, Stages: []place.Stage{mk("first"), mk("second")}}
	if _, err := pipe.Run(context.Background(), &place.Request{Cluster: c, NP: 4, Opts: core.Options{Obs: o}}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("stage order = %v", order)
	}
	var spanNames []string
	for _, s := range o.Phases.Spans() {
		spanNames = append(spanNames, s.Name)
	}
	want := []string{"place", "first", "second"}
	if len(spanNames) != len(want) {
		t.Fatalf("spans = %v, want %v", spanNames, want)
	}
	for i := range want {
		if spanNames[i] != want[i] {
			t.Fatalf("spans = %v, want %v", spanNames, want)
		}
	}
}

func TestPipelineRejectsRankCountChange(t *testing.T) {
	c := nehalemCluster(t, 2)
	pol, _ := place.Lookup("by-slot")
	drop := stageFunc{name: "drop", fn: func(req *place.Request, m *core.Map) (*core.Map, error) {
		return &core.Map{Placements: m.Placements[:m.NumRanks()-1]}, nil
	}}
	pipe := place.Pipeline{Policy: pol, Stages: []place.Stage{drop}}
	if _, err := pipe.Run(context.Background(), &place.Request{Cluster: c, NP: 4}); err == nil {
		t.Fatal("rank-count-changing stage accepted")
	}
}

type stageFunc struct {
	name string
	fn   func(*place.Request, *core.Map) (*core.Map, error)
}

func (s stageFunc) StageName() string { return s.name }
func (s stageFunc) Apply(_ context.Context, req *place.Request, m *core.Map) (*core.Map, error) {
	return s.fn(req, m)
}

// TestSweepAllPolicies runs the policy-generic sweep over the full
// registry and checks results come back in job order.
func TestSweepAllPolicies(t *testing.T) {
	c := nehalemCluster(t, 4)
	req := requestFor(t, c, 8)
	var jobs []place.Job
	for _, name := range place.Names() {
		p, ok := place.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		jobs = append(jobs, place.Job{Policy: p, Req: req})
	}
	maps, err := place.Sweep(context.Background(), jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(maps), len(jobs))
	}
	for i, m := range maps {
		if m == nil || m.NumRanks() != 8 {
			t.Errorf("job %d (%s): bad result %v", i, jobs[i].Policy.Name(), m)
		}
	}
}

// TestSweepObservation checks the sweep-level events and metrics flow from
// the first job's observer while per-job map events stay suppressed.
func TestSweepObservation(t *testing.T) {
	c := nehalemCluster(t, 2)
	sink := obs.NewMemorySink()
	o := &obs.Observer{Sink: sink, Metrics: obs.NewRegistry(), Clock: func() int64 { return 0 }}
	req := &place.Request{Cluster: c, NP: 4, Opts: core.Options{Obs: o}}
	bySlot, _ := place.Lookup("by-slot")
	byNode, _ := place.Lookup("by-node")
	jobs := []place.Job{{Policy: bySlot, Req: req}, {Policy: byNode, Req: req}}
	if _, err := place.Sweep(context.Background(), jobs, 2); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, name := range sink.Names("sweep") {
		counts[name]++
	}
	if counts["sweep/start"] != 1 || counts["sweep/done"] != 1 || counts["sweep/job"] != 2 {
		t.Errorf("sweep events = %v, want start=1 job=2 done=1", counts)
	}
	if got := len(sink.Names("map")); got != 0 {
		t.Errorf("%d per-map events leaked through the stripped sink", got)
	}
	if got := o.Metrics.Counter("lama_sweep_jobs_total").Value(); got != 2 {
		t.Errorf("lama_sweep_jobs_total = %d, want 2", got)
	}
}

func TestSweepFirstErrorWins(t *testing.T) {
	c := nehalemCluster(t, 2)
	tmatch, _ := place.Lookup("treematch")
	bySlot, _ := place.Lookup("by-slot")
	jobs := []place.Job{
		{Policy: bySlot, Req: &place.Request{Cluster: c, NP: 4}},
		{Policy: tmatch, Req: &place.Request{Cluster: c, NP: 4}}, // no traffic: fails
	}
	if _, err := place.Sweep(context.Background(), jobs, 2); err == nil {
		t.Fatal("expected sweep to surface the failing job's error")
	}
}
