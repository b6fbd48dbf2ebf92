package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/policy_all.golden from the current output")

// TestPolicyAllGolden pins the cross-policy sweep byte for byte: the
// printed table and the -json "policies" rows of `lamabench -policy all`.
// Neither carries a timing column. Regenerate with
// `go test ./cmd/lamabench -run PolicyAllGolden -update` only when a
// change is meant to move them.
func TestPolicyAllGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	var out bytes.Buffer
	if err := run([]string{"-policy", "all", "-json", path}, &out); err != nil {
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
	rows, err := json.MarshalIndent(rep.Policies, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := out.String() + string(rows) + "\n"
	golden := filepath.Join("testdata", "policy_all.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("-policy all output differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
