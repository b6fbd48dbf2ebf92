package main

import (
	"bytes"
	"strings"
	"testing"
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
