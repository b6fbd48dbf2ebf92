package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func reportWithPhase(placeUs float64, stalls int64) string {
	return fmt.Sprintf(`{
	  "schema": "runreport/v1", "tool": "lamasim",
	  "phaseTotalsUs": {"place": %g, "prune": 5},
	  "metrics": {
	    "counters": {"lama_map_stalls_total": %d, "lama_maps_total": 3},
	    "histograms": {"lama_map_duration_us": {
	      "buckets": [{"le":"+Inf","count":1}], "sum": %g, "count": 1}}
	  }
	}`, placeUs, stalls, placeUs)
}

func TestDiffReportsClean(t *testing.T) {
	oldP := writeFixture(t, "old.json", reportWithPhase(500, 0))
	newP := writeFixture(t, "new.json", reportWithPhase(550, 0)) // +10% < 25%
	var out bytes.Buffer
	if err := run([]string{"diff", oldP, newP}, &out); err != nil {
		t.Fatalf("10%% drift should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDiffReportsPhaseRegression(t *testing.T) {
	oldP := writeFixture(t, "old.json", reportWithPhase(500, 0))
	newP := writeFixture(t, "new.json", reportWithPhase(800, 0)) // +60%
	var out bytes.Buffer
	err := run([]string{"diff", oldP, newP}, &out)
	if err == nil || !strings.Contains(err.Error(), "phase place") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("table should mark the regression:\n%s", out.String())
	}
	// A looser threshold lets the same pair pass.
	out.Reset()
	if err := run([]string{"diff", "-threshold", "75", oldP, newP}, &out); err != nil {
		t.Fatalf("75%% threshold should pass: %v", err)
	}
}

func TestDiffReportsJitterFloor(t *testing.T) {
	// The prune phase doubles (5 -> 10us) but sits below -min-us: ignored.
	oldP := writeFixture(t, "old.json", reportWithPhase(500, 0))
	newP := writeFixture(t, "new.json", `{
	  "schema": "runreport/v1", "tool": "lamasim",
	  "phaseTotalsUs": {"place": 500, "prune": 10}
	}`)
	var out bytes.Buffer
	if err := run([]string{"diff", oldP, newP}, &out); err != nil {
		t.Fatalf("sub-floor jitter should pass: %v\n%s", err, out.String())
	}
}

func TestDiffReportsStallCounter(t *testing.T) {
	oldP := writeFixture(t, "old.json", reportWithPhase(500, 0))
	newP := writeFixture(t, "new.json", reportWithPhase(500, 2))
	var out bytes.Buffer
	err := run([]string{"diff", oldP, newP}, &out)
	if err == nil || !strings.Contains(err.Error(), "lama_map_stalls_total") {
		t.Fatalf("stall growth should regress regardless of threshold: %v", err)
	}
}

func TestDiffArgErrors(t *testing.T) {
	report := writeFixture(t, "m.json", reportWithPhase(500, 0))
	unknown := writeFixture(t, "u.json", `{"schema":"mystery/v1","tool":"x"}`)
	trace := writeFixture(t, "t.jsonl", fixtureTrace)
	var out bytes.Buffer
	if err := run([]string{"diff", report}, &out); err == nil {
		t.Fatal("one file should fail")
	}
	if err := run([]string{"diff", report, unknown}, &out); err == nil ||
		!strings.Contains(err.Error(), `schema "mystery/v1"`) {
		t.Fatalf("unknown schema: %v", err)
	}
	if err := run([]string{"diff", trace, report}, &out); err == nil ||
		!strings.Contains(err.Error(), "not traces") {
		t.Fatalf("trace diff: %v", err)
	}
}
