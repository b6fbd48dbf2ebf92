package obs

import "runtime/metrics"

// gcSamples are the runtime/metrics the GC gauges read, in gauge order.
var gcSamples = [...]struct{ metric, gauge string }{
	{"/gc/cycles/total:gc-cycles", "lama_go_gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "lama_go_gc_cpu_seconds"},
}

// RegisterGCGauges publishes the process's garbage collector work as two
// gauges: lama_go_gc_cycles, the GC cycles completed, and
// lama_go_gc_cpu_seconds, the CPU time the GC has spent (an estimate the
// runtime keeps). Both only grow; their rates over a run are its GC
// cycles per second and GC CPU share. They are read from runtime/metrics
// on each snapshot, so the code the GC serves pays nothing for them. A
// nil registry is a no-op.
func RegisterGCGauges(r *Registry) {
	if r == nil {
		return
	}
	var gauges [len(gcSamples)]*Gauge
	for i, s := range gcSamples {
		gauges[i] = r.Gauge(s.gauge)
	}
	r.OnSnapshot(func() {
		samples := make([]metrics.Sample, len(gcSamples))
		for i, s := range gcSamples {
			samples[i].Name = s.metric
		}
		metrics.Read(samples)
		for i, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				gauges[i].Set(float64(s.Value.Uint64()))
			case metrics.KindFloat64:
				gauges[i].Set(s.Value.Float64())
			}
		}
	})
}
