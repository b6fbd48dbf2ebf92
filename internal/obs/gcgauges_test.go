package obs

import (
	"runtime"
	"strings"
	"testing"
)

// TestGCGaugesReadOnSnapshot: the GC gauges are set by the snapshot that
// reads them and by nothing else, they count the collections run in
// between, and both reach the Prometheus text.
func TestGCGaugesReadOnSnapshot(t *testing.T) {
	r := NewRegistry()
	RegisterGCGauges(r)
	runtime.GC()
	if v := r.Gauge("lama_go_gc_cycles").Value(); v != 0 {
		t.Fatalf("lama_go_gc_cycles = %g before any snapshot: it is pushed, not read on scrape", v)
	}
	first := r.Snapshot().Gauges["lama_go_gc_cycles"]
	if first < 1 {
		t.Fatalf("lama_go_gc_cycles = %g after runtime.GC", first)
	}
	runtime.GC()
	runtime.GC()
	snap := r.Snapshot()
	if got := snap.Gauges["lama_go_gc_cycles"]; got < first+2 {
		t.Fatalf("lama_go_gc_cycles = %g after two more collections, was %g", got, first)
	}
	if cpu := snap.Gauges["lama_go_gc_cpu_seconds"]; cpu < 0 {
		t.Fatalf("lama_go_gc_cpu_seconds = %g", cpu)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE lama_go_gc_cycles gauge\n", "# TYPE lama_go_gc_cpu_seconds gauge\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	var nilReg *Registry
	RegisterGCGauges(nilReg) // a nil registry is a no-op
	nilReg.OnSnapshot(func() { t.Fatal("a nil registry ran a sampler") })
}
