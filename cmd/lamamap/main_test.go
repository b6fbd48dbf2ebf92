package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunLevel3(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-np", "24", "-cluster", "2xfig2", "--",
		"--lama-map", "scbnh", "--bind-to", "core"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"process layout:    scbnh",
		"abstraction level: 3",
		"node0:", "socket 1:", "[h1: 12]",
		"binding width (rank 0)", "2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunLevel2Shortcut(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xnehalem-ep", "--", "--map-by", "socket"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "abstraction level: 2") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunHostfile(t *testing.T) {
	dir := t.TempDir()
	hf := filepath.Join(dir, "hosts")
	if err := os.WriteFile(hf, []byte("a slots=4 spec=fig2\nb slots=4 spec=fig2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-hostfile", hf, "--", "--bynode"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a") || !strings.Contains(out.String(), "2 nodes") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunRankfile(t *testing.T) {
	dir := t.TempDir()
	rf := filepath.Join(dir, "ranks")
	if err := os.WriteFile(rf, []byte("rank 0=node0 slot=0\nrank 1=node1 slot=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-np", "2", "-cluster", "2xfig2", "-rankfile", rf}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "abstraction level: 4") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-np", "4", "-cluster", "junk"},                      // bad cluster syntax
		{"-np", "4", "-cluster", "0xfig2"},                    // bad node count
		{"-np", "4", "-cluster", "1xbogus~"},                  // bad spec
		{"-np", "0", "-cluster", "1xfig2"},                    // bad np
		{"-np", "4", "-cluster", "1xfig2", "--", "--nope"},    // bad mpirun arg
		{"-np", "99", "-cluster", "1xfig2"},                   // oversubscribe
		{"-np", "4", "-hostfile", "/does/not/exist"},          // missing hostfile
		{"-np", "4", "-cluster", "1xfig2", "-rankfile", "/x"}, // missing rankfile
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-json", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if decoded["layout"] != "scbnh" {
		t.Fatalf("layout = %v", decoded["layout"])
	}
}

func TestRunEmitRankfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-emit-rankfile", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "rank 0=node0 slot=0") {
		t.Fatalf("rankfile:\n%s", out.String())
	}
	if strings.Count(out.String(), "\n") != 4 {
		t.Fatalf("want 4 lines:\n%s", out.String())
	}
}

func TestRunTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-trace", "6", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "iteration trace") || !strings.Contains(out.String(), "mapped rank 0") {
		t.Fatalf("trace missing:\n%s", out.String())
	}
	// Trace rejects rankfile mode.
	var bad bytes.Buffer
	err := run([]string{"-np", "1", "-cluster", "1xfig2", "-trace", "3", "--", "--rankfile-text", "rank 0=node0 slot=0"}, &bad)
	if err == nil {
		t.Fatal("trace with rankfile should fail")
	}
}

// TestTraceCountsOneMap checks that -trace's re-run for the iteration
// listing stays out of the run report: one placement, one map counted.
func TestTraceCountsOneMap(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	if err := run([]string{"-np", "8", "-cluster", "2xnehalem-ep", "-trace", "3",
		"-metrics-out", reportPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Metrics struct{ Counters map[string]int64 }
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if got := report.Metrics.Counters; got["lama_maps_total"] != 1 || got["lama_ranks_placed_total"] != 8 {
		t.Fatalf("counters = %v, want 1 map of 8 ranks", got)
	}
}

// TestObservabilityFlags checks the shared -trace-out/-metrics-out wiring:
// the mapping and bind phases land in the report and the trace carries the
// map completion event.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	reportPath := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	err := run([]string{"-np", "24", "-cluster", "2xfig2",
		"-trace-out", tracePath, "-metrics-out", reportPath,
		"--", "--lama-map", "scbnh", "--bind-to", "core"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"src":"map"`) || !strings.Contains(string(trace), `"event":"done"`) {
		t.Fatalf("trace missing map done event:\n%s", trace)
	}
	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "runreport/v1"`, `"tool": "lamamap"`,
		`"prune"`, `"build-shape"`, `"sweep"`, `"place"`, `"bind"`,
		`"lama_map_nodes_used"`} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("report missing %s:\n%s", want, report)
		}
	}
}
