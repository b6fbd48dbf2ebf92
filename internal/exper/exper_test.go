package exper

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E10", "E11", "E12", "E13", "E14", "E16", "E17", "E18", "E19", "E2", "E20", "E23", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Exhibit == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("E3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E15", "E99"} {
		if _, err := ByID(id); err == nil {
			t.Fatalf("unknown ID %s should fail", id)
		}
	}
}

// TestAllExperimentsRun executes every experiment at sampled scale and
// checks the tables are well-formed.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("%s produced an empty table: %+v", e.ID, tb)
				}
				if out := tb.String(); !strings.Contains(out, "==") {
					t.Fatalf("%s table renders badly", e.ID)
				}
			}
		})
	}
}

func TestE3MatchesPaperNarrative(t *testing.T) {
	tables, err := runE3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	main := tables[0]
	if len(main.Rows) != 24 {
		t.Fatalf("E3 rows = %d", len(main.Rows))
	}
	// Rank 0: node0 socket0 core0 thread0; rank 1 scatters to socket 1.
	if main.Rows[0][2] != "0" || main.Rows[1][2] != "1" {
		t.Fatalf("socket scatter broken: %v %v", main.Rows[0], main.Rows[1])
	}
	// Ranks 0-5 on node0, 6-11 on node1 (node before hwthread).
	if main.Rows[5][1] != "node0" || main.Rows[6][1] != "node1" {
		t.Fatalf("node fill broken: %v %v", main.Rows[5], main.Rows[6])
	}
	// Rank 12 wraps onto the second hardware thread of node0.
	if main.Rows[12][1] != "node0" || main.Rows[12][4] != "1" {
		t.Fatalf("hwthread wrap broken: %v", main.Rows[12])
	}
}

func TestE5ShowsTunedImprovement(t *testing.T) {
	tables, err := runE5(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Every network block ends with a tuned row whose improvement is
	// non-negative versus the by-slot default.
	tuned := 0
	for _, row := range rows {
		if strings.HasPrefix(row[1], "tuned:") {
			tuned++
			if strings.HasPrefix(row[4], "-") {
				t.Fatalf("tuned layout slower than default: %v", row)
			}
		}
	}
	if tuned != 4 {
		t.Fatalf("tuned rows = %d, want one per each of 4 networks", tuned)
	}
}

func TestE4SampledCountsAreExact(t *testing.T) {
	tables, err := runE4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := tables[0].Rows[0]
	if row[1] != "362880" {
		t.Fatalf("total layouts = %s", row[1])
	}
	if row[2] != "5040" || row[3] != "5040" {
		t.Fatalf("sampled check = %s/%s, want 5040/5040", row[2], row[3])
	}
}
