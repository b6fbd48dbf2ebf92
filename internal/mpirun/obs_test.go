package mpirun

import (
	"context"
	"sort"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/rankfile"
)

// TestEventVocabularyUniformAcrossLevels is the satellite-1 regression:
// before the pipeline refactor the Level-4 rankfile branch bypassed the
// observer entirely, so rankfile runs were missing the mapping phase from
// traces and reports. Now every abstraction level must emit the same event
// vocabulary, record the map in the metrics, and time both a placement
// phase and the bind phase.
func TestEventVocabularyUniformAcrossLevels(t *testing.T) {
	sp, ok := hw.Preset("fig2")
	if !ok {
		t.Fatal("fig2 preset missing")
	}
	const np = 12

	// A Level-4 rankfile equivalent to the Level-1 default placement.
	base := cluster.Homogeneous(2, sp)
	m, err := Execute(context.Background(), &Request{NP: np, Level: 3, Layout: core.MustParseLayout("csbnh")}, base)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rankfile.FromMap(m.Map)
	if err != nil {
		t.Fatal(err)
	}
	rfText := rankfile.Format(rf)

	levels := []struct {
		name string
		args []string
	}{
		{"level2", []string{"-np", "12", "--map-by", "socket"}},
		{"level3", []string{"-np", "12", "--lama-map", "scbnh"}},
		{"level4", []string{"-np", "12", "--rankfile-text", rfText}},
	}

	events := map[string][]string{}
	for _, lv := range levels {
		c := cluster.Homogeneous(2, sp)
		sink := obs.NewMemorySink()
		o := &obs.Observer{
			Sink: sink, Metrics: obs.NewRegistry(), Phases: obs.NewPhaseTimer(),
			Clock: func() int64 { return 0 },
		}
		req, err := Parse(lv.args)
		if err != nil {
			t.Fatalf("%s: %v", lv.name, err)
		}
		req.Opts.Obs = o
		if _, err := Execute(context.Background(), req, c); err != nil {
			t.Fatalf("%s: %v", lv.name, err)
		}

		vocab := map[string]bool{}
		for _, e := range sink.Events() {
			// Every emitted pair must come from the canonical table in
			// internal/obs/vocab.go — the same table lamavet's obsvocab
			// analyzer enforces at the call sites.
			if !obs.VocabRegistered(e.Source, e.Name) {
				t.Errorf("%s: event (%s, %s) is not in the canonical vocabulary", lv.name, e.Source, e.Name)
			}
			vocab[e.Source+"/"+e.Name] = true
		}
		var names []string
		for n := range vocab {
			names = append(names, n)
		}
		sort.Strings(names)
		events[lv.name] = names

		if got := o.Metrics.Counter("lama_maps_total").Value(); got != 1 {
			t.Errorf("%s: lama_maps_total = %d, want 1", lv.name, got)
		}
		phases := map[string]bool{}
		for _, s := range o.Phases.Spans() {
			if !obs.SpanRegistered(s.Name) {
				t.Errorf("%s: span label %q is not in the canonical span table", lv.name, s.Name)
			}
			phases[s.Name] = true
		}
		if !phases[obs.SpanPlace] {
			t.Errorf("%s: no place span (phases %v)", lv.name, phases)
		}
		if !phases[obs.SpanBind] {
			t.Errorf("%s: no bind span (phases %v)", lv.name, phases)
		}
	}

	ref := events["level2"]
	if len(ref) == 0 {
		t.Fatal("level2 emitted no events")
	}
	for _, lv := range []string{"level3", "level4"} {
		got := events[lv]
		if len(got) != len(ref) {
			t.Errorf("%s vocabulary %v differs from level2 %v", lv, got, ref)
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s vocabulary %v differs from level2 %v", lv, got, ref)
				break
			}
		}
	}
}

// TestExecuteHonorsExplicitPolicy checks --policy overrides the
// level-derived default.
func TestExecuteHonorsExplicitPolicy(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	req, err := Parse([]string{"-np", "8", "--policy", "by-node"})
	if err != nil {
		t.Fatal(err)
	}
	if req.PolicyName() != "by-node" {
		t.Fatalf("PolicyName = %q, want by-node", req.PolicyName())
	}
	res, err := Execute(context.Background(), req, c)
	if err != nil {
		t.Fatal(err)
	}
	// by-node round-robins nodes, so ranks 0 and 1 land on different nodes.
	if res.Map.Placements[0].Node == res.Map.Placements[1].Node {
		t.Error("by-node policy not applied: ranks 0 and 1 share a node")
	}
	if _, err := Execute(context.Background(), &Request{NP: 8, Policy: "nope"}, c); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestExecuteRecordsPipelineSpans drives place → bind in one call and
// finds both phase spans.
func TestExecuteRecordsPipelineSpans(t *testing.T) {
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(2, sp)
	o := &obs.Observer{Phases: obs.NewPhaseTimer()}
	req, err := Parse([]string{"-np", "8", "--bind-to", "core"})
	if err != nil {
		t.Fatal(err)
	}
	req.Opts.Obs = o
	if _, err := Execute(context.Background(), req, c); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, s := range o.Phases.Spans() {
		phases[s.Name] = true
	}
	for _, want := range []string{"place", "bind"} {
		if !phases[want] {
			t.Errorf("missing %s span (phases %v)", want, phases)
		}
	}
}
