package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed phase span, with start offset and duration
// in microseconds relative to the timer's epoch (its creation time).
type SpanRecord struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	DurUs   float64 `json:"durUs"`
}

// PhaseTimer records span-style phase timings (prune -> build-shape ->
// sweep -> place -> bind) so a run's wall time can be attributed per
// phase. It is safe for concurrent use: sweep workers time their phases
// from pool goroutines.
//
// With EnablePprofLabels switched on (the -listen telemetry server does
// this), each open span additionally sets the goroutine's lama_phase
// pprof label, so CPU profiles pulled from /debug/pprof/profile
// attribute samples per phase. Labels are flat: the innermost open span
// wins, and its end restores the unlabeled state (see pprof.go).
type PhaseTimer struct {
	mu    sync.Mutex
	epoch time.Time // immutable after construction
	//lama:guards mu
	spans       []SpanRecord
	pprofLabels atomic.Bool
}

// NewPhaseTimer returns a timer whose epoch is now.
func NewPhaseTimer() *PhaseTimer { return &PhaseTimer{epoch: time.Now()} }

// EnablePprofLabels makes every span label its goroutine with lama_phase
// for the span's duration. Switch it on before the timer is shared.
func (t *PhaseTimer) EnablePprofLabels() { t.pprofLabels.Store(true) }

// PprofLabeled reports whether spans set pprof labels (false for nil).
func (t *PhaseTimer) PprofLabeled() bool { return t != nil && t.pprofLabels.Load() }

// Start begins a span and returns its terminator; call it exactly once.
func (t *PhaseTimer) Start(name string) func() {
	var unlabel func()
	if t.pprofLabels.Load() {
		unlabel = setGoroutineLabel(PprofLabelPhase, name)
	}
	start := time.Now()
	return func() {
		end := time.Now()
		if unlabel != nil {
			unlabel()
		}
		t.mu.Lock()
		t.spans = append(t.spans, SpanRecord{
			Name:    name,
			StartUs: float64(start.Sub(t.epoch)) / float64(time.Microsecond),
			DurUs:   float64(end.Sub(start)) / float64(time.Microsecond),
		})
		t.mu.Unlock()
	}
}

// Spans returns the completed spans in completion order (nil timer gives
// nil).
func (t *PhaseTimer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Totals aggregates the completed spans' durations by phase name, in
// microseconds — the phaseTotalsUs a run report carries.
func (t *PhaseTimer) Totals() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, 8)
	for _, s := range t.spans {
		out[s.Name] += s.DurUs
	}
	return out
}
