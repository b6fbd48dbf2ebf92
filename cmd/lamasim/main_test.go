package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lama/internal/obs"
)

func TestStaticMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "32", "-nodes", "4", "-pattern", "ring"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static communication metrics", "treematch", "random", "lama csbnh"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestAppMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-np", "32", "-nodes", "4", "-mode", "app",
		"-compute", "100", "-iters", "10", "-pattern", "gtc"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BSP application") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestCollMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "16", "-nodes", "4", "-mode", "coll"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allreduce-ring") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestNetworks(t *testing.T) {
	for _, net := range []string{"flat", "fat-tree", "torus", "dragonfly"} {
		var out bytes.Buffer
		if err := run([]string{"-np", "16", "-nodes", "8", "-net", net}, &out); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
	}
	// A bare torus takes the same torus.FitDims shape as an explicit one
	// and as lamamap; 360 nodes is the smallest count where that differs
	// from a commpat.Grid3D factoring (9x8x5).
	for _, net := range []string{"torus", "torus:10x6x6"} {
		var out bytes.Buffer
		if err := run([]string{"-np", "16", "-nodes", "360", "-net", net, "-policy", "torus"}, &out); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if !strings.Contains(out.String(), "network torus(10x6x6)") {
			t.Fatalf("-nodes 360 -net %s:\n%s", net, out.String())
		}
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-net", "quantum"},
		{"-pattern", "mystery"},
		{"-mode", "dance"},
		{"-spec", "bogus~"},
		{"-np", "9999", "-nodes", "1"}, // over capacity
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// A bad policy list fails before the report header is printed.
	for _, list := range []string{"bogus", ","} {
		var out bytes.Buffer
		if err := run([]string{"-policy", list}, &out); err == nil {
			t.Errorf("-policy %q should fail", list)
		} else if out.Len() != 0 {
			t.Errorf("-policy %q printed before failing:\n%s", list, out.String())
		}
	}
}

func TestTrafficFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traffic.txt")
	text := "ranks 8\n0 1 1000000\n1 0 1000000\n2 3 500000\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-np", "8", "-nodes", "2", "-traffic", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traffic.txt") {
		t.Fatalf("output:\n%s", out.String())
	}
	// Rank mismatch and missing file.
	var bad bytes.Buffer
	if err := run([]string{"-np", "9", "-nodes", "2", "-traffic", path}, &bad); err == nil {
		t.Fatal("rank mismatch should fail")
	}
	if err := run([]string{"-np", "8", "-traffic", "/nope"}, &bad); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestFluidMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "16", "-nodes", "2", "-mode", "fluid", "-pattern", "ring"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fluid simulation") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestValidateRejectsMalformed corrupts the artifacts lamasim writes and
// checks that the run-artifact validators (obs.ValidateJSONLTrace and
// obs.ValidateRunReport) reject them: a trace line without "src", and a
// report with a future schema.
func TestValidateRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	reportPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	err := run([]string{"-np", "16", "-nodes", "4", "-pattern", "ring",
		"-trace-out", tracePath, "-metrics-out", reportPath}, &out)
	if err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.ValidateJSONLTrace(bytes.NewReader(trace)); err != nil {
		t.Fatalf("lamasim's own trace: %v", err)
	}
	for _, bad := range []string{
		string(trace) + `{"no":"src"}` + "\n",
		strings.Replace(string(trace), `"src":`, `"source":`, 1),
	} {
		if _, _, err := obs.ValidateJSONLTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("src-less trace should fail validation:\n%s", bad)
		}
	}

	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateRunReport(report); err != nil {
		t.Fatalf("lamasim's own report: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(string(report), `"runreport/v1"`, `"runreport/v99"`, 1),
		`{"schema":"runreport/v99","tool":"x"}`,
	} {
		if bad == string(report) {
			t.Fatalf("report has no runreport/v1 schema to corrupt:\n%s", report)
		}
		if _, err := obs.ValidateRunReport([]byte(bad)); err == nil {
			t.Fatalf("wrong-schema report should fail validation:\n%s", bad)
		}
	}
}
