package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEventMarshalJSON(t *testing.T) {
	e := Event{
		TimeUnixNano: 42, Source: "engine", Name: "swap",
		Fields: []Field{F("ranks", []int{3, 4}), F("to_epoch", 10)},
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":42,"src":"engine","event":"swap","ranks":[3,4],"to_epoch":10}`
	if string(data) != want {
		t.Fatalf("marshal = %s, want %s", data, want)
	}
	// Zero time is omitted.
	e2 := Event{Source: "map", Name: "done"}
	data2, _ := json.Marshal(e2)
	if string(data2) != `{"src":"map","event":"done"}` {
		t.Fatalf("marshal = %s", data2)
	}
}

func TestEventText(t *testing.T) {
	e := Event{Source: "map", Name: "done", Fields: []Field{F("np", 64)}}
	if got := e.Text(); got != "map/done np=64" {
		t.Fatalf("text = %q", got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := &Observer{Sink: sink}
	o.Emit("map", "start", F("np", 8))
	o.Emit("engine", "swap", F("to_epoch", 2))
	o.Emit("engine", "shed")
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	n, bySource, err := ValidateJSONLTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || bySource["engine"] != 2 || bySource["map"] != 1 {
		t.Fatalf("n=%d bySource=%v", n, bySource)
	}
}

func TestValidateJSONLTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json\n",
		`{"event":"x"}` + "\n",            // no src
		`{"src":"map"}` + "\n",            // no event
		`{"src":5,"event":"x"}` + "\n",    // src not a string
		`{"src":"m","event":null}` + "\n", // event not a string
	}
	for _, c := range cases {
		if _, _, err := ValidateJSONLTrace(strings.NewReader(c)); err == nil {
			t.Errorf("trace %q should fail validation", c)
		}
	}
	// Blank lines are tolerated, and so is the "step" key that traces
	// written by older releases carry.
	ok := `{"src":"m","event":"e"}` + "\n\n" + `{"src":"m","event":"f"}` + "\n" +
		`{"t":42,"src":"supervise","event":"detect","step":12,"ranks":[3,4]}` + "\n"
	if n, _, err := ValidateJSONLTrace(strings.NewReader(ok)); err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestMemorySinkAndNames(t *testing.T) {
	sink := NewMemorySink()
	o := &Observer{Sink: sink, Clock: func() int64 { return 0 }}
	o.Emit("a", "one")
	o.Emit("b", "two")
	o.Emit("a", "three")
	if got := sink.Names("a"); len(got) != 2 || got[0] != "a/one" || got[1] != "a/three" {
		t.Fatalf("names = %v", got)
	}
	if got := sink.Names(""); len(got) != 3 {
		t.Fatalf("all names = %v", got)
	}
	if ev := sink.Events()[0]; ev.TimeUnixNano != 0 {
		t.Fatalf("pinned clock leaked a stamp: %+v", ev)
	}
}

func TestMultiSink(t *testing.T) {
	m1, m2 := NewMemorySink(), NewMemorySink()
	sink := NewMultiSink(m1, nil, m2)
	sink.Emit(Event{Source: "x", Name: "y"})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(m1.Events()) != 1 || len(m2.Events()) != 1 {
		t.Fatal("fan-out failed")
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer claims enabled")
	}
	o.Emit("map", "done", F("np", 1)) // must not panic
	o.StartSpan("place")()
	if o.Reg() != nil {
		t.Fatal("nil observer has a registry")
	}
	o.Reg().Counter("x").Inc()
	o.Reg().Gauge("y").Set(1)
	o.Reg().Histogram("z", LatencyBucketsUs).Observe(1)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := o.Report("t", nil); rep.Schema != RunReportSchema {
		t.Fatal("nil observer report")
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lama_test_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("lama_test_total") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("lama_test_gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("lama_test_us", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1065 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["lama_test_us"]
	// Cumulative: <=10 holds 2 (5 and the boundary 10), <=100 holds 3, +Inf 4.
	if got := []int64{hs.Buckets[0].Count, hs.Buckets[1].Count, hs.Buckets[2].Count}; got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("buckets = %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", LatencyBucketsUs).Observe(float64(i % 10))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
	if r.Histogram("h", LatencyBucketsUs).Count() != 8000 {
		t.Fatal("histogram lost observations")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lama_restarts_total").Add(2)
	r.Gauge("lama_final_ranks").Set(64)
	r.Histogram("lama_map_us", []float64{100, 1000}).Observe(150)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lama_restarts_total counter\nlama_restarts_total 2",
		"# TYPE lama_final_ranks gauge\nlama_final_ranks 64",
		"# TYPE lama_map_us histogram",
		`lama_map_us_bucket{le="100"} 0`,
		`lama_map_us_bucket{le="1000"} 1`,
		`lama_map_us_bucket{le="+Inf"} 1`,
		"lama_map_us_sum 150",
		"lama_map_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	var nilReg *Registry
	if err := nilReg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	end := pt.Start("place")
	inner := pt.Start("sweep")
	inner()
	end()
	spans := pt.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	// Completion order: inner ends first.
	if spans[0].Name != "sweep" || spans[1].Name != "place" {
		t.Fatalf("span order = %v", spans)
	}
	totals := pt.Totals()
	if totals["place"] < totals["sweep"] {
		t.Fatalf("place should envelop sweep: %v", totals)
	}
	var nilPT *PhaseTimer
	if nilPT.Spans() != nil || nilPT.Totals() != nil {
		t.Fatal("nil timer not empty")
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Phases: NewPhaseTimer()}
	o.StartSpan("prune")()
	o.Reg().Counter("lama_ranks_placed_total").Add(24)
	o.Reg().Histogram("lama_map_duration_us", LatencyBucketsUs).Observe(42)
	rep := o.Report("lamasim", map[string]any{"np": 24, "layout": "scbnh"})
	rep.Recovery = []TimelineEntry{{Step: 12, Action: "respawn", Detail: map[string]any{"ranks": []int{3}}}}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ValidateRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "lamasim" || back.Metrics.Counters["lama_ranks_placed_total"] != 24 {
		t.Fatalf("round trip = %+v", back)
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "prune" {
		t.Fatalf("phases = %v", back.Phases)
	}
	if len(back.Recovery) != 1 || back.Recovery[0].Action != "respawn" {
		t.Fatalf("recovery = %v", back.Recovery)
	}
}

// TestValidateRunReportRejects runs every rejection branch, each case
// checked against its own error text so it proves the branch it names.
func TestValidateRunReportRejects(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"not json", "nope", "does not parse"},
		{"wrong schema", `{"schema":"runreport/v9","tool":"x"}`, `schema "runreport/v9"`},
		{"no tool", `{"schema":"runreport/v1"}`, "has no tool"},
		{"negative span", `{"schema":"runreport/v1","tool":"x","phases":[{"name":"p","startUs":0,"durUs":-1}]}`,
			"bad phase span"},
		{"empty action", `{"schema":"runreport/v1","tool":"x","recovery":[{"step":3,"action":"detect"},{"step":7,"action":""}]}`,
			"recovery entry with no action at step 7"},
		{"series out of step order", `{"schema":"runreport/v1","tool":"x","series":{"world_size":[
			{"step":0,"value":16},{"step":50,"value":20},{"step":40,"value":18}]}}`,
			"series world_size not in step order at index 2"},
		{"empty series name", `{"schema":"runreport/v1","tool":"x","series":{"":[{"step":0,"value":1}]}}`,
			"series with empty name"},
		{"non-cumulative histogram", `{"schema":"runreport/v1","tool":"x","metrics":{"histograms":{
			"h":{"buckets":[{"le":1,"count":5},{"le":"+Inf","count":3}],"sum":0,"count":3}}}}`,
			"not cumulative"},
		{"bad +Inf total", `{"schema":"runreport/v1","tool":"x","metrics":{"histograms":{
			"h":{"buckets":[{"le":1,"count":1},{"le":"+Inf","count":2}],"sum":0,"count":9}}}}`,
			"+Inf bucket 2 != count 9"},
	} {
		_, err := ValidateRunReport([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRunReportAcceptsRecoveryReport keeps the append-only
// schema promise: a report written by lamasim's former fault-tolerance
// mode (-ft respawn -spares 1 -fail-node 0), with its recovery timeline,
// still validates and parses.
func TestValidateRunReportAcceptsRecoveryReport(t *testing.T) {
	data, err := readFile(filepath.Join("testdata", "runreport_v1_recovery.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "lamasim" || len(rep.Recovery) != 1 {
		t.Fatalf("tool %q, %d recovery entries", rep.Tool, len(rep.Recovery))
	}
	if e := rep.Recovery[0]; e.Step != 13 || e.Action != "respawn" || e.Detail["ranksMoved"] != 8.0 {
		t.Fatalf("recovery entry = %+v", e)
	}
}

func TestCLIFlagsObserver(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-trace-out", trace, "-metrics-out", filepath.Join(dir, "m.json"), "-v"}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	o, closeObs, err := f.Observer(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Enabled() || o.Phases == nil || o.Reg() == nil {
		t.Fatal("observer not fully enabled")
	}
	end := o.StartSpan("place")
	o.Emit("map", "done", F("np", 4))
	end()
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := ValidateJSONLTrace(bytes.NewReader(data)); err != nil || n != 1 {
		t.Fatalf("trace n=%d err=%v", n, err)
	}
	if !strings.Contains(stderr.String(), "map/done") {
		t.Fatalf("verbose rendering missing: %q", stderr.String())
	}
	if err := f.WriteReport(o.Report("x", nil)); err != nil {
		t.Fatal(err)
	}

	// Nothing requested: nil observer, nothing to close or write.
	f2 := &CLIFlags{}
	o2, close2, err := f2.Observer(io.Discard)
	if err != nil || o2 != nil {
		t.Fatalf("o2=%v err=%v", o2, err)
	}
	if err := close2(); err != nil {
		t.Fatal(err)
	}
	if err := f2.WriteReport(nil); err != nil {
		t.Fatal(err)
	}
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
