package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runs.golden from the current output")

// goldenRuns is the lamasim comparison matrix pinned by runs.golden: every
// report mode over every bare network name and four patterns, the full
// policy registry, the network-aware post-passes with and without it, a
// trimmed -policy list, and a traffic file whose pairs repeat. No mode
// prints a timing column, so every byte is reproducible.
func goldenRuns() [][]string {
	base := []string{"-np", "64", "-nodes", "8"}
	modes := []string{"static", "app", "coll", "fluid"}
	var runs [][]string
	add := func(args ...string) {
		runs = append(runs, append(append([]string(nil), base...), args...))
	}
	for _, mode := range modes {
		for _, net := range []string{"flat", "fat-tree", "torus", "dragonfly"} {
			for _, pat := range []string{"stencil2d", "gtc", "alltoall", "nas-mg"} {
				add("-mode", mode, "-net", net, "-pattern", pat)
			}
		}
	}
	traffic := filepath.Join("testdata", "traffic64.txt")
	for _, mode := range modes {
		for _, net := range []string{"flat", "torus"} {
			add("-mode", mode, "-net", net, "-pattern", "gtc", "-policy", "all")
		}
		add("-mode", mode, "-net", "torus", "-pattern", "gtc", "-net-refine")
		add("-mode", mode, "-net", "torus", "-pattern", "gtc", "-net-refine", "-policy", "all")
		add("-mode", mode, "-traffic", traffic)
	}
	add("-net", "fat-tree", "-pattern", "gtc", "-policy", " treematch, ,random,lama ")
	add("-net", "dragonfly", "-traffic", traffic, "-net-refine", "-policy", "all")
	return runs
}

// TestRunsGolden pins lamasim's printed reports byte for byte. Regenerate
// with `go test ./cmd/lamasim -run RunsGolden -update` only when a change
// is meant to move them.
func TestRunsGolden(t *testing.T) {
	var sb strings.Builder
	for _, args := range goldenRuns() {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("lamasim %s: %v", strings.Join(args, " "), err)
		}
		sb.WriteString("$ lamasim " + strings.Join(args, " ") + "\n")
		sb.Write(out.Bytes())
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "runs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
