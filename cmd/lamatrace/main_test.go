package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture drops content into a temp file and returns its path.
func writeFixture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureTrace's order line carries the "step" key that traces written
// by older releases put on every event; validate and summary ignore it.
const fixtureTrace = `{"src":"map","event":"done","policy":"by-slot","np":8}
{"src":"netsim","event":"order","step":3,"j_before":100,"j_after":80}
{"src":"netsim","event":"refine","j_before":80,"j_after":72}
{"src":"engine","event":"swap","cluster":"smoke","from_epoch":1,"to_epoch":2,"stale_purged":3}
`

const fixtureReport = `{
  "schema": "runreport/v1",
  "tool": "lamasim",
  "phases": [{"name":"place","startUs":0,"durUs":500}],
  "phaseTotalsUs": {"place": 500, "sweep": 120},
  "metrics": {
    "counters": {"lama_maps_total": 2},
    "histograms": {"lama_map_duration_us": {
      "buckets": [{"le":1000,"count":2},{"le":"+Inf","count":2}],
      "sum": 500, "count": 2}}
  },
  "series": {"world_size": [{"step":0,"value":16},{"step":50,"value":20}]}
}`

func TestRunNoArgsAndUnknown(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no command should fail")
	}
	if err := run([]string{"bogus"}, &out); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
	if err := run([]string{"help"}, &out); err != nil || !strings.Contains(out.String(), "summary") {
		t.Fatalf("help: err=%v out=%q", err, out.String())
	}
}

func TestSummaryTrace(t *testing.T) {
	path := writeFixture(t, "t.jsonl", fixtureTrace)
	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"4 events",
		"netsim", "order", "refine",
		"engine", "swap",
		"objective transitions",
		"netsim/order", "-20.0%", // 100 -> 80
		"netsim/refine", "-10.0%", // 80 -> 72
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestSummaryTraceFlagsUnregisteredVocab(t *testing.T) {
	path := writeFixture(t, "t.jsonl", `{"src":"map","event":"no-such-event"}`+"\n")
	var out bytes.Buffer
	err := run([]string{"summary", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "not in the observability vocabulary") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "UNREGISTERED") {
		t.Fatalf("table should mark the pair:\n%s", out.String())
	}
}

func TestSummaryReport(t *testing.T) {
	path := writeFixture(t, "m.json", fixtureReport)
	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"runreport/v1 from lamasim",
		"phase latency breakdown",
		"place", "80.6%", // 500 of 620
		"lama_maps_total",
		"lama_map_duration_us", "250.00", // mean 500/2
		"world_size", "16.000", "20.000",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestSummaryRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"summary"}, &out); err == nil {
		t.Fatal("no file should fail")
	}
	bad := writeFixture(t, "x.json", `{"schema":"mystery/v1"}`)
	if err := run([]string{"summary", bad}, &out); err == nil || !strings.Contains(err.Error(), `schema "mystery/v1"`) {
		t.Fatalf("err = %v", err)
	}
	garbage := writeFixture(t, "g.json", "not json")
	if err := run([]string{"summary", garbage}, &out); err == nil {
		t.Fatal("garbage should fail")
	}
	if err := run([]string{"summary", filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestValidateCommand(t *testing.T) {
	trace := writeFixture(t, "t.jsonl", fixtureTrace)
	report := writeFixture(t, "m.json", fixtureReport)
	var out bytes.Buffer
	if err := run([]string{"validate", trace, report}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		trace + ": ok, JSONL trace, 4 events (engine=1 map=1 netsim=2)",
		report + ": ok, runreport/v1 from lamasim (1 phases, 2 metrics, 0 recovery entries)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("validate output missing %q:\n%s", want, got)
		}
	}
	if err := run([]string{"validate"}, &out); err == nil {
		t.Fatal("no files should fail")
	}
	broken := writeFixture(t, "broken.jsonl", "{\"src\":\"map\"}\n")
	if err := run([]string{"validate", broken}, &out); err == nil {
		t.Fatal("trace without event key should fail")
	}
	srcless := writeFixture(t, "srcless.jsonl", `{"no":"src"}`+"\n")
	if err := run([]string{"validate", srcless}, &out); err == nil {
		t.Fatal("src-less trace should fail")
	}
	badReport := writeFixture(t, "bad.json", `{"schema":"runreport/v1"}`)
	if err := run([]string{"validate", badReport}, &out); err == nil {
		t.Fatal("report without tool should fail")
	}
	wrongSchema := writeFixture(t, "v99.json", `{"schema":"runreport/v99","tool":"x"}`)
	if err := run([]string{"validate", wrongSchema}, &out); err == nil {
		t.Fatal("wrong-schema report should fail")
	}
}
