// Package driver is the obsvocab fixture: registered and unregistered
// event pairs, non-constant names, and span labels, all against the real
// canonical vocabulary in lama/internal/obs/vocab.go.
package driver

import "lama/internal/obs"

// registered emits pairs straight from the canonical table; nothing to
// report.
func registered(o *obs.Observer) {
	o.Emit(obs.SrcMap, obs.EvDone, obs.F("ranks", 8))
	o.Emit(obs.SrcSweep, obs.EvJob)
}

// localConst re-derives a registered pair through local constants, which
// still evaluate at compile time; nothing to report.
func localConst(o *obs.Observer) {
	const src = obs.SrcMap
	o.Emit(src, obs.EvStall)
}

// unregistered emits a (source, name) pair missing from the table.
func unregistered(o *obs.Observer) {
	o.Emit(obs.SrcMap, "detected") // want `event \("map", "detected"\) is not in the canonical vocabulary`
}

// unregisteredSource pairs a registered name with an unknown source.
func unregisteredSource(o *obs.Observer) {
	o.Emit("mapper", obs.EvDone) // want `event \("mapper", "done"\) is not in the canonical vocabulary`
}

// dynamicName builds the event name at run time, which the vocabulary
// check cannot follow.
func dynamicName(o *obs.Observer, suffix string) {
	o.Emit(obs.SrcMap, "visit-"+suffix) // want `event source and name must be compile-time constants`
}

// spans exercises the span-label table: registered constants pass,
// unregistered literals are flagged, and dynamic labels are left to the
// runtime (pipeline stages are labeled by Stage.StageName).
func spans(o *obs.Observer, stage string) {
	done := o.StartSpan(obs.SpanPlace)
	done()
	bad := o.StartSpan("placing") // want `span label "placing" is not in the canonical span table`
	bad()
	dyn := o.StartSpan(stage)
	dyn()
}
