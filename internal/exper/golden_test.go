package exper

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// netsimExhibits names the tables whose numbers come from netsim pricing
// (Model.Evaluate, Cost, coll, netorder, appsim, msgsim). None has a timing
// column, so every byte is reproducible; E9a is left out because it
// prices nothing.
var netsimExhibits = []struct{ id, titlePrefix string }{
	{"E5", "E5 "},
	{"E6", "E6 "},
	{"E9", "E9b "},
	{"E12", "E12 "},
	{"E13", "E13 "},
	{"E14", "E14 "},
	{"E16", "E16 "},
	{"E17", "E17b "},
	{"E18", "E18 "},
	{"E19", "E19 "},
}

// TestNetsimExhibitsGolden pins the printed tables of every netsim-backed
// exhibit byte for byte, so a change to how pairs are priced cannot move a
// reported number unnoticed. Regenerate with
// `go test ./internal/exper -run NetsimExhibitsGolden -update` only when a
// change is meant to move them.
func TestNetsimExhibitsGolden(t *testing.T) {
	var sb strings.Builder
	for _, x := range netsimExhibits {
		e, err := ByID(x.id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", x.id, err)
		}
		n := 0
		for _, tb := range tables {
			if strings.HasPrefix(tb.Title, x.titlePrefix) {
				sb.WriteString(tb.String())
				sb.WriteByte('\n')
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no table titled %q", x.id, x.titlePrefix)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "netsim_exhibits.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("exhibit output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exhibit output differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
