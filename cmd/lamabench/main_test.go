package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lama/internal/analysis"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E5", "E11"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestRunSeveralCheapExperiments(t *testing.T) {
	for _, id := range []string{"E2", "E3", "E7", "E10", "E11"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", id, "-seed", "7"}, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out.String(), "### "+id) {
			t.Fatalf("%s header missing", id)
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "E4", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "lamabench/v2" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.GoVersion != runtime.Version() {
		t.Fatalf("goVersion = %q, want %q", rep.GoVersion, runtime.Version())
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Fatalf("numCPU = %d, want %d", rep.NumCPU, runtime.NumCPU())
	}
	// GitRevision is best-effort: test binaries usually carry no vcs stamp.
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "E4" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	e := rep.Experiments[0]
	// E4 maps 5,040 sampled layouts x 32 ranks = 161,280 placements.
	if e.Placements != 5040*32 {
		t.Fatalf("placements = %d, want %d", e.Placements, 5040*32)
	}
	if e.WallSeconds <= 0 || e.PlacementsPerSec <= 0 {
		t.Fatalf("timings not recorded: %+v", e)
	}
	if rep.TotalSeconds < e.WallSeconds {
		t.Fatalf("total %v < experiment %v", rep.TotalSeconds, e.WallSeconds)
	}
	// Without -lint, provenance records that no verdict was taken.
	if rep.Lint == nil || rep.Lint.Tool != "lamavet" || rep.Lint.Version != analysis.Version || rep.Lint.Status != "unchecked" {
		t.Fatalf("lint provenance = %+v", rep.Lint)
	}
}

// TestLintProvenance covers the -lint flag's verdict plumbing: trusted
// verdicts are recorded verbatim, unknown modes fail, and "run" executes
// the suite against the module (which this repository keeps clean).
func TestLintProvenance(t *testing.T) {
	l, err := lintProvenance("dirty")
	if err != nil {
		t.Fatal(err)
	}
	if l.Status != "dirty" || l.Tool != "lamavet" || l.Version != analysis.Version {
		t.Fatalf("lint = %+v", l)
	}
	if _, err := lintProvenance("bogus"); err == nil {
		t.Fatal("unknown -lint mode accepted")
	}
	if testing.Short() {
		t.Skip("whole-module -lint=run in -short mode")
	}
	l, err = lintProvenance("run")
	if err != nil {
		t.Fatal(err)
	}
	if l.Status != "clean" || l.Findings != 0 {
		t.Fatalf("lint = %+v, want clean module", l)
	}
}

// TestParseReportAcceptsV1Golden keeps the schema bump backward compatible:
// v1 documents archived by older CI runs must still parse, with the v2
// header fields simply absent.
func TestParseReportAcceptsV1Golden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "perf_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "lamabench/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.GoVersion != "" || rep.GitRevision != "" || rep.NumCPU != 0 {
		t.Fatalf("v1 document grew header fields: %+v", rep)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Placements != 161280 {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
}

func TestParseReportRejectsUnknownSchema(t *testing.T) {
	if _, err := parseReport([]byte(`{"schema":"lamabench/v99"}`)); err == nil {
		t.Fatal("unknown schema should fail")
	}
	if _, err := parseReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage should fail")
	}
}

// TestPolicyErrors: an unknown policy or a list naming none fails before
// anything is printed.
func TestPolicyErrors(t *testing.T) {
	for _, list := range []string{"bogus", ",", "lama,bogus"} {
		var out bytes.Buffer
		if err := run([]string{"-policy", list}, &out); err == nil {
			t.Errorf("-policy %q should fail", list)
		} else if out.Len() != 0 {
			t.Errorf("-policy %q printed before failing:\n%s", list, out.String())
		}
	}
}
