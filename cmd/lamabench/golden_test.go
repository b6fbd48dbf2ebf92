package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/policy_all.golden from the current output")

// TestPolicyAllGolden pins the cross-policy sweep table of
// `lamabench -policy all` byte for byte; it carries no timing column.
// Regenerate with `go test ./cmd/lamabench -run PolicyAllGolden -update`
// only when a change is meant to move it.
func TestPolicyAllGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
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
