package obs

import "sort"

// This file is the canonical observability vocabulary: every structured
// event the repository emits is a (source, name) pair drawn from the
// constants below, and every phase span label is one of the Span*
// constants (pipeline stage spans, which are named by the stage itself,
// are the single documented exception). The `obsvocab` analyzer in
// internal/analysis cross-checks the table statically: an Observer.Emit
// call with an unregistered or non-constant (source, name) pair fails
// `lamavet`, as does a table entry nothing emits. Grow the vocabulary by
// adding a constant AND a table row — never by passing a fresh string
// literal at an emission site. The `lamatrace summary` CLI cross-checks
// recorded traces against the same table dynamically, flagging any
// (source, name) pair a trace carries that the vocabulary does not.

// Event sources: the "src" key of every emitted event.
const (
	// SrcMap is the mapping engine (core.Mapper and the place.Run wrapper).
	SrcMap = "map"
	// SrcSweep is the sweep driver (place.Sweep), which runs layout sweeps
	// as "lama" jobs and cross-policy sweeps alike.
	SrcSweep = "sweep"
	// SrcPipeline is the composable post-pass pipeline (place.Pipeline).
	SrcPipeline = "pipeline"
	// SrcTopogen is the topology generator CLI.
	SrcTopogen = "topogen"
	// SrcNetSim is the network-aware placement machinery (the netorder
	// node-ordering stage and its delta-J swap refinement).
	SrcNetSim = "netsim"
	// SrcEngine is the request-scoped placement engine (internal/engine:
	// snapshot registry, worker pool, placement cache, admission control).
	SrcEngine = "engine"
)

// Event names: the "event" key, scoped by source in the vocabulary table.
const (
	// EvDone closes a unit of work (a map, a sweep).
	EvDone = "done"
	// EvStall reports a mapping run that could not place every rank.
	EvStall = "stall"
	// EvVisit streams one visited coordinate from MapTraced.
	EvVisit = "visit"
	// EvStart opens a unit of work (a sweep).
	EvStart = "start"
	// EvJob and EvJobFailed report one job of a sweep.
	EvJob       = "job"
	EvJobFailed = "job-failed"
	// EvStage reports one completed pipeline post-pass stage.
	EvStage = "stage"
	// EvGenerate is topogen's cluster construction event.
	EvGenerate = "generate"
	// EvOrder reports one netorder node-ordering pass: the network-aware
	// node permutation and the J objective before/after.
	EvOrder = "order"
	// EvRefine reports one delta-J pairwise-swap refinement pass: swaps
	// applied, sweeps run, and the J objective before/after.
	EvRefine = "refine"
	// EvRegister reports a cluster registered with the placement engine.
	EvRegister = "register"
	// EvSwap reports one atomic snapshot swap on the engine (a failure or
	// grow event), with the epochs and the count of cache entries that
	// went stale.
	EvSwap = "swap"
	// EvShed reports one placement request refused by admission control
	// (queue full or deadline exceeded while queued).
	EvShed = "shed"
)

// Phase span names (PhaseTimer labels). Pipeline stages span under their
// own StageName (e.g. the refinement pass's SpanNetRefine).
const (
	// SpanPrune and SpanBuildShape are the mapper's one-off build phases.
	SpanPrune      = "prune"
	SpanBuildShape = "build-shape"
	// SpanSweep is one resource-space traversal inside a mapping run.
	SpanSweep = "sweep"
	// SpanPlace envelops one placement run, whichever policy produced it.
	SpanPlace = "place"
	// SpanBind is the downstream binding step.
	SpanBind = "bind"
	// SpanGenerate is topogen's cluster construction phase.
	SpanGenerate = "generate"
	// SpanNetOrder is the network-aware node-ordering post-pass stage.
	SpanNetOrder = "netorder"
	// SpanNetRefine is the delta-J pairwise-swap refinement post-pass
	// stage.
	SpanNetRefine = "netrefine"
)

// VocabEntry is one registered (source, name) event pair.
type VocabEntry struct {
	Source string
	Name   string
}

// vocab is the canonical emission set. Ordered by source, then by the
// rough lifecycle order within the source, for readability; Vocabulary
// returns a sorted copy.
var vocab = []VocabEntry{
	{SrcMap, EvDone},
	{SrcMap, EvStall},
	{SrcMap, EvVisit},

	{SrcSweep, EvStart},
	{SrcSweep, EvJob},
	{SrcSweep, EvJobFailed},
	{SrcSweep, EvDone},

	{SrcPipeline, EvStage},

	{SrcNetSim, EvOrder},
	{SrcNetSim, EvRefine},

	{SrcTopogen, EvGenerate},

	{SrcEngine, EvRegister},
	{SrcEngine, EvSwap},
	{SrcEngine, EvShed},
}

// spanNames is the registered phase-span label set.
var spanNames = []string{
	SpanPrune, SpanBuildShape, SpanSweep, SpanPlace,
	SpanBind, SpanGenerate,
	SpanNetOrder, SpanNetRefine,
}

// Vocabulary returns the registered (source, name) pairs sorted by
// source, then name.
func Vocabulary() []VocabEntry {
	out := append([]VocabEntry(nil), vocab...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// VocabRegistered reports whether (source, name) is a registered event
// pair.
func VocabRegistered(source, name string) bool {
	for _, e := range vocab {
		if e.Source == source && e.Name == name {
			return true
		}
	}
	return false
}

// SpanRegistered reports whether name is a registered phase-span label.
func SpanRegistered(name string) bool {
	for _, s := range spanNames {
		if s == name {
			return true
		}
	}
	return false
}
