package core

import (
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/hw"
	"lama/internal/obs"
)

func TestMapTracedMatchesMap(t *testing.T) {
	c := fig2Cluster(t, 2)
	mapper, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	plain, err := mapper.Map(24)
	if err != nil {
		t.Fatal(err)
	}
	traced, events, err := mapper.MapTraced(24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMaps(plain, traced) {
		t.Fatal("traced map differs from plain map")
	}
	// 24 mapped events in rank order, no skips on a full regular machine.
	mapped := 0
	for _, e := range events {
		if e.Action == Mapped {
			if e.Rank != mapped {
				t.Fatalf("mapped ranks out of order: %v", e)
			}
			mapped++
		} else {
			t.Fatalf("unexpected skip on regular machine: %v", e)
		}
	}
	if mapped != 24 {
		t.Fatalf("mapped events = %d", mapped)
	}
}

func TestMapTracedSkipReasons(t *testing.T) {
	big, _ := hw.Preset("nehalem-ep")
	small, _ := hw.Preset("bgp-node")
	c := cluster.FromSpecs(big, small)
	c.Node(0).Topo.SetAvailable(hw.LevelCore, 0, false)
	mapper, _ := NewMapper(c, MustParseLayout("scnh"), Options{})
	_, events, err := mapper.MapTraced(18, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[TraceAction]int{}
	for _, e := range events {
		seen[e.Action]++
	}
	if seen[SkipNonexistent] == 0 {
		t.Fatalf("expected skip-nonexistent on heterogeneous cluster: %v", seen)
	}
	if seen[SkipUnavailable] == 0 {
		t.Fatalf("expected skip-unavailable with an offline core: %v", seen)
	}
	if seen[Mapped] != 18 {
		t.Fatalf("mapped = %d", seen[Mapped])
	}
}

func TestMapTracedOversubAndCaps(t *testing.T) {
	c := fig2Cluster(t, 1)
	m1, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if _, events, err := m1.MapTraced(13, 0); err == nil {
		t.Fatal("should fail")
	} else {
		found := false
		for _, e := range events {
			if e.Action == SkipOversub {
				found = true
			}
		}
		if !found {
			t.Fatal("no skip-oversubscribe events recorded")
		}
	}
	m2, _ := NewMapper(c, MustParseLayout("scbnh"),
		Options{MaxPerResource: map[hw.Level]int{hw.LevelSocket: 1}})
	_, events, err := m2.MapTraced(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = events
	m3, _ := NewMapper(c, MustParseLayout("scbnh"),
		Options{MaxPerResource: map[hw.Level]int{hw.LevelMachine: 1}})
	if _, events, err := m3.MapTraced(2, 0); err == nil {
		t.Fatal("node cap should stall")
	} else {
		capped := 0
		for _, e := range events {
			if e.Action == SkipCapped {
				capped++
			}
		}
		if capped == 0 {
			t.Fatal("no skip-capped events")
		}
	}
}

func TestMapTracedEventLimit(t *testing.T) {
	c := fig2Cluster(t, 2)
	mapper, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	_, events, err := mapper.MapTraced(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
}

func TestTraceEventString(t *testing.T) {
	coords := NoCoords()
	coords[hw.LevelSocket] = 1
	coords[hw.LevelMachine] = 0
	e := TraceEvent{Coords: coords, Action: Mapped, Rank: 3, Sweep: 0}
	// The exact rendering predates the CoordVector conversion: canonical
	// level order, "sweep N" prefix, "-> action [rank R]" suffix.
	if got, want := e.String(), "sweep 0 n=0 s=1 -> mapped rank 3"; got != want {
		t.Fatalf("event string %q, want %q", got, want)
	}
	skip := TraceEvent{Coords: NoCoords(), Action: SkipUnavailable, Rank: -1}
	if got, want := skip.String(), "sweep 0 -> skip-unavailable"; got != want {
		t.Fatalf("skip string %q, want %q", got, want)
	}
	if !strings.HasPrefix(TraceAction(9).String(), "action(") {
		t.Fatal("unknown action")
	}
}

// TestMapTracedAllocations pins the satellite claim of the CoordVector
// conversion: tracing no longer allocates a map per visited coordinate.
// Per-visit cost is now just the amortized events-slice growth, so a
// traced run of np ranks stays within a small constant plus the slice
// doublings rather than one-map-per-event.
func TestMapTracedAllocations(t *testing.T) {
	c := fig2Cluster(t, 2)
	mapper, _ := NewMapper(c, MustParseLayout("scbnh"), Options{})
	if _, _, err := mapper.MapTraced(24, 0); err != nil { // warm reusable state
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := mapper.MapTraced(24, 0); err != nil {
			t.Fatal(err)
		}
	})
	// 24 visits: a map per visit would cost >= 24 allocations on its own.
	if allocs > 16 {
		t.Errorf("MapTraced(24) allocates %.0f objects/run, want <= 16", allocs)
	}
}

// TestMapTracedEmitsToSink checks the tentpole wiring: with an Observer in
// the options, every visited coordinate streams to the event sink and the
// run closes with a map/done event, regardless of the maxEvents cap on
// the returned slice.
func TestMapTracedEmitsToSink(t *testing.T) {
	c := fig2Cluster(t, 2)
	sink := obs.NewMemorySink()
	o := &obs.Observer{Sink: sink, Clock: func() int64 { return 0 }}
	mapper, _ := NewMapper(c, MustParseLayout("scbnh"), Options{Obs: o})
	_, events, err := mapper.MapTraced(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("returned events = %d, want capped 5", len(events))
	}
	visits, done := 0, 0
	for _, e := range sink.Events() {
		switch e.Source + "/" + e.Name {
		case "map/visit":
			visits++
		case "map/done":
			done++
		}
	}
	if visits != 24 || done != 1 {
		t.Fatalf("sink saw %d visits, %d done; want 24, 1", visits, done)
	}
}
