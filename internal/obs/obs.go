// Package obs is the unified observability layer of the repository: one
// structured-event stream, one typed metrics registry, and one span-style
// phase timer shared by the mapping engine, the layout sweeps, the
// placement engine, and every CLI.
//
// The design goal is zero cost when disabled: every producer holds a
// *Observer that may be nil, and all Observer methods are nil-receiver
// safe. Hot paths guard event construction behind Observer.Enabled() so a
// disabled run performs no allocation, no time syscalls, and no locking
// (pinned by BenchmarkMapObsDisabled and TestMapAllocationsSteadyState).
//
// Events are flat JSON objects with three reserved keys — "t" (unix-nano
// wall stamp, omitted when zero), "src" (emitting subsystem), "event"
// (name within the source) — plus arbitrary event-specific fields. The JSONL backend writes one event per
// line, the text backend a human-readable rendering, and MemorySink
// collects events for tests.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Field is one event-specific key/value pair. Values must be JSON
// encodable; keys must not collide with the reserved "t", "src" and
// "event" keys.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured observation.
type Event struct {
	// TimeUnixNano is the wall-clock stamp; zero means "not stamped" and is
	// omitted from the JSON form (deterministic test sinks pin a zero
	// clock).
	TimeUnixNano int64
	// Source identifies the emitting subsystem: "map", "sweep",
	// "engine", ...
	Source string
	// Name is the event name within the source ("done", "swap", ...).
	Name string
	// Fields carries the event-specific payload in emission order.
	Fields []Field
}

// MarshalJSON renders the event as a flat JSON object.
func (e Event) MarshalJSON() ([]byte, error) {
	var sb strings.Builder
	sb.WriteByte('{')
	if e.TimeUnixNano != 0 {
		fmt.Fprintf(&sb, `"t":%d,`, e.TimeUnixNano)
	}
	src, err := json.Marshal(e.Source)
	if err != nil {
		return nil, err
	}
	name, err := json.Marshal(e.Name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, `"src":%s,"event":%s`, src, name)
	for _, f := range e.Fields {
		k, err := json.Marshal(f.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(f.Value)
		if err != nil {
			return nil, fmt.Errorf("obs: field %q: %v", f.Key, err)
		}
		fmt.Fprintf(&sb, `,%s:%s`, k, v)
	}
	sb.WriteByte('}')
	return []byte(sb.String()), nil
}

// Text renders the event for humans: "src/event key=value ...".
func (e Event) Text() string {
	var sb strings.Builder
	if e.TimeUnixNano != 0 {
		sb.WriteString(time.Unix(0, e.TimeUnixNano).Format("15:04:05.000 "))
	}
	fmt.Fprintf(&sb, "%s/%s", e.Source, e.Name)
	for _, f := range e.Fields {
		fmt.Fprintf(&sb, " %s=%v", f.Key, f.Value)
	}
	return sb.String()
}

// Sink consumes structured events. Implementations must be safe for
// concurrent Emit calls (sweep workers emit from pool goroutines).
type Sink interface {
	Emit(e Event)
	// Close flushes buffered output. The sink must not be used afterwards.
	Close() error
}

// jsonlSink writes one JSON object per line.
type jsonlSink struct {
	mu  sync.Mutex
	w   *bufio.Writer //lama:guards mu
	err error         //lama:guards mu
}

// NewJSONLSink returns a sink writing JSON-Lines to w. Encoding errors are
// sticky and surfaced by Close.
func NewJSONLSink(w io.Writer) Sink { return &jsonlSink{w: bufio.NewWriter(w)} }

func (s *jsonlSink) Emit(e Event) {
	data, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.w.Write(data)
	s.w.WriteByte('\n')
}

func (s *jsonlSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// textSink writes human-readable lines.
type textSink struct {
	mu sync.Mutex
	w  *bufio.Writer //lama:guards mu
}

// NewTextSink returns a sink writing one human-readable line per event.
func NewTextSink(w io.Writer) Sink { return &textSink{w: bufio.NewWriter(w)} }

func (s *textSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.WriteString(e.Text())
	s.w.WriteByte('\n')
}

func (s *textSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// MemorySink collects events in memory, for tests and report assembly.
// Like every Sink it is safe for concurrent Emit: sweep workers and the
// engine's placement workers emit from their own goroutines.
type MemorySink struct {
	mu     sync.Mutex
	events []Event //lama:guards mu
}

// NewMemorySink returns an empty in-memory sink.
//
//lama:api test sink: tests across the module collect events with it
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends the event.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// Events returns a snapshot of the collected events.
//
//lama:api test sink: tests across the module read collected events with it
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Names returns the collected "src/event" names in order, optionally
// filtered to one source — the shape assertions in tests key off this.
//
//lama:api test sink: tests across the module assert event order with it
func (s *MemorySink) Names(source string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, e := range s.events {
		if source != "" && e.Source != source {
			continue
		}
		out = append(out, e.Source+"/"+e.Name)
	}
	return out
}

// discardSink drops everything. Distinct from a nil sink: producers still
// construct events, which is what BenchmarkMapObsEnabled measures.
type discardSink struct{}

func (discardSink) Emit(Event) {}

func (discardSink) Close() error { return nil }

// Discard is a sink that drops every event.
//
//lama:api test sink: the enabled-observer benchmarks emit into it
var Discard Sink = discardSink{}

// multiSink fans events out to several sinks.
type multiSink struct{ sinks []Sink }

// NewMultiSink fans every event out to all given sinks; Close closes each
// and returns the first error.
func NewMultiSink(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return &multiSink{sinks: kept}
}

func (m *multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Observer bundles the three observability facilities a producer may be
// handed: an event sink, a metrics registry, and a phase timer. Any field
// may be nil, the whole Observer may be nil, and every method is
// nil-receiver safe, so producers thread a single pointer and pay nothing
// when observability is off.
type Observer struct {
	// Sink receives structured events; nil disables emission.
	Sink Sink
	// Metrics is the typed metrics registry; nil disables recording.
	Metrics *Registry
	// Phases records span timings; nil disables them.
	Phases *PhaseTimer
	// Clock supplies event timestamps as unix-nanos; nil means wall clock.
	// Deterministic tests pin it (return 0 to omit stamps entirely).
	Clock func() int64
}

// Enabled reports that structured events are being collected. Producers
// use it to guard event construction in hot paths.
func (o *Observer) Enabled() bool { return o != nil && o.Sink != nil }

// Reg returns the metrics registry, nil when disabled. The Registry's
// methods are themselves nil-safe, so `o.Reg().Counter("x").Inc()` is
// always valid (and a no-op when disabled).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Emit sends one event to the sink (no-op when disabled).
func (o *Observer) Emit(source, name string, fields ...Field) {
	if !o.Enabled() {
		return
	}
	e := Event{Source: source, Name: name, Fields: fields}
	if o.Clock != nil {
		e.TimeUnixNano = o.Clock()
	} else {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	o.Sink.Emit(e)
}

// noopEnd is the shared no-op span terminator returned when timing is off.
var noopEnd = func() {}

// StartSpan begins a named phase span and returns its terminator. With a
// nil observer or timer it returns a shared no-op and reads no clock.
func (o *Observer) StartSpan(name string) func() {
	if o == nil || o.Phases == nil {
		return noopEnd
	}
	return o.Phases.Start(name)
}

// Close closes the sink, if any.
func (o *Observer) Close() error {
	if o == nil || o.Sink == nil {
		return nil
	}
	return o.Sink.Close()
}

// sortedKeys is shared by the exposition code paths.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
