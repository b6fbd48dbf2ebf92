package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: named counters, gauges, and
// fixed-bucket histograms. Lookup is mutex-guarded and idempotent (the
// first caller creates the instrument, later callers get the same one);
// the instruments themselves update with atomics so recording from sweep
// workers or the engine's placement workers is lock-free. A nil *Registry
// is valid: every method returns a nil instrument whose update methods
// are no-ops.
type Registry struct {
	mu sync.Mutex
	//lama:guards mu
	counters map[string]*Counter
	//lama:guards mu
	gauges map[string]*Gauge
	//lama:guards mu
	histograms map[string]*Histogram
	//lama:guards mu
	infos map[string]map[string]string
	//lama:guards mu
	samplers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		infos:      map[string]map[string]string{},
	}
}

// SetInfo records an info-style metric: a gauge with constant value 1
// whose payload is its label set (the Prometheus convention for build
// and identity metadata, e.g. lama_build_info). The first caller's
// labels win; later calls with the same name are ignored so providers
// can register unconditionally. A nil registry is a no-op.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.infos[name]; ok {
		return
	}
	copied := make(map[string]string, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
	r.infos[name] = copied
}

// OnSnapshot registers f to run at the start of every Snapshot, and so of
// every /metrics and /metrics.json scrape: it sets gauges whose values
// are read off the process when asked for rather than pushed by the code
// they describe. f must be safe for concurrent use. A nil registry is a
// no-op.
func (r *Registry) OnSnapshot(f func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, f)
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (no-op on a nil counter; negative deltas are ignored to keep
// the counter monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value.
type Gauge struct{ bits atomic.Uint64 }

// Set records the value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed, ascending upper-bound buckets
// (Prometheus classic-histogram semantics: an observation lands in the
// first bucket whose bound is >= the value, or the implicit +Inf bucket).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf

	mu    sync.Mutex
	sum   float64 //lama:guards mu
	total int64   //lama:guards mu
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.mu.Lock()
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// LatencyBucketsUs are the fixed buckets for planning/placement latencies
// in microseconds, spanning sub-10us steady-state maps to multi-second
// exhaustive sweeps.
var LatencyBucketsUs = []float64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 5_000_000,
}

// Counter returns (creating if needed) the named counter; nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil registry returns
// a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given ascending upper bounds; the bounds of the first creation win. A
// nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.histograms[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: the cumulative count
// of observations <= the upper bound UpperLe ("+Inf" for the overflow
// bucket, encoded as math.Inf(1) and rendered as the JSON string "+Inf").
type BucketCount struct {
	UpperLe float64 `json:"le"`
	Count   int64   `json:"count"`
}

// HistogramSnapshot is a histogram's frozen state.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   int64         `json:"count"`
}

// MetricsSnapshot is the registry's frozen state, the "metrics" section of
// a runreport/v1 document.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Infos      map[string]map[string]string `json:"infos,omitempty"`
}

// Snapshot runs the OnSnapshot samplers, then freezes the registry (nil
// registry gives a nil snapshot).
func (r *Registry) Snapshot() *MetricsSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	samplers := r.samplers
	r.mu.Unlock()
	for _, f := range samplers {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &MetricsSnapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{Sum: h.Sum(), Count: h.Count()}
			cum := int64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				hs.Buckets = append(hs.Buckets, BucketCount{UpperLe: le, Count: cum})
			}
			s.Histograms[name] = hs
		}
	}
	if len(r.infos) > 0 {
		s.Infos = make(map[string]map[string]string, len(r.infos))
		for name, labels := range r.infos {
			copied := make(map[string]string, len(labels))
			for k, v := range labels {
				copied[k] = v
			}
			s.Infos[name] = copied
		}
	}
	return s
}

// MarshalJSON renders +Inf bucket bounds as the string "+Inf" (plain JSON
// has no infinity literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := fmt.Sprintf("%g", b.UpperLe)
	if math.IsInf(b.UpperLe, 1) {
		le = `"+Inf"`
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    any   `json:"le"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch v := raw.Le.(type) {
	case float64:
		b.UpperLe = v
	case string:
		if v != "+Inf" {
			return fmt.Errorf("obs: bad bucket bound %q", v)
		}
		b.UpperLe = math.Inf(1)
	default:
		return fmt.Errorf("obs: bad bucket bound %v", raw.Le)
	}
	b.Count = raw.Count
	return nil
}

// escapeLabelValue applies the Prometheus text-format escapes for label
// values: backslash, double quote, and line feed.
func escapeLabelValue(v string) string {
	return labelEscaper.Replace(v)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the registry in the Prometheus text exposition
// format, instruments sorted by name. Info metrics render as constant-1
// gauges with their labels sorted by key.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Infos) {
		labels := s.Infos[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s{", name, name); err != nil {
			return err
		}
		for i, k := range sortedKeys(labels) {
			sep := ","
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, `%s%s="%s"`, sep, k, escapeLabelValue(labels[k])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, "} 1\n"); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := fmt.Sprintf("%g", b.UpperLe)
			if math.IsInf(b.UpperLe, 1) {
				le = "+Inf"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
