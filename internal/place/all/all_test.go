package all_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/place"
	"lama/internal/place/all"
)

func base(t *testing.T) place.Request {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	return place.Request{Cluster: cluster.Homogeneous(4, sp), NP: 16, Traffic: commpat.Ring(16, 1<<20), Seed: 3}
}

func names(jobs []place.Job) []string {
	var out []string
	for _, j := range jobs {
		out = append(out, j.Policy.Name())
	}
	return out
}

// TestJobsSelects: "all" is the registry in Names order, a list is
// trimmed with empty entries skipped, and every job runs with base.
func TestJobsSelects(t *testing.T) {
	b := base(t)
	jobs, err := all.Jobs("all", b)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(jobs); !reflect.DeepEqual(got, place.Names()) {
		t.Fatalf("all = %v, want %v", got, place.Names())
	}
	jobs, err = all.Jobs(" treematch, ,random,lama ", b)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(jobs); !reflect.DeepEqual(got, []string{"treematch", "random", "lama"}) {
		t.Fatalf("list = %v", got)
	}
	for _, j := range jobs {
		if j.Req.Cluster != b.Cluster || j.Req.NP != b.NP || j.Req.Traffic != b.Traffic || j.Req.Seed != b.Seed {
			t.Fatalf("%s: request %+v is not base", j.Policy.Name(), j.Req)
		}
	}
	if _, err := place.Sweep(context.Background(), jobs, 2); err != nil {
		t.Fatal(err)
	}
}

// TestJobsRankfileIsBySlot: the rankfile job replays base's by-slot map.
func TestJobsRankfileIsBySlot(t *testing.T) {
	b := base(t)
	jobs, err := all.Jobs("by-slot,rankfile", b)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Req.RankfileText != "" || jobs[1].Req.RankfileText == "" {
		t.Fatal("rankfile text must be set on the rankfile job only")
	}
	maps, err := place.Sweep(context.Background(), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := range maps[0].Placements {
		a, c := maps[0].Placements[r], maps[1].Placements[r]
		if a.Node != c.Node || a.PU() != c.PU() {
			t.Fatalf("rank %d: rankfile put it on node %d PU %d, by-slot on node %d PU %d", r, c.Node, c.PU(), a.Node, a.PU())
		}
	}
}

// TestJobsErrors: an unknown name fails with place's unknown-policy error
// before anything runs (the nil cluster would fail the rankfile's by-slot
// placement first otherwise), and a list naming nothing is an error.
func TestJobsErrors(t *testing.T) {
	_, want := place.Place(context.Background(), "bogus", nil)
	if _, err := all.Jobs("rankfile,bogus", place.Request{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
	for _, list := range []string{"", ",", " , "} {
		if _, err := all.Jobs(list, base(t)); err == nil || !strings.Contains(err.Error(), "selects no policies") {
			t.Errorf("Jobs(%q) err = %v, want an empty-selection error", list, err)
		}
	}
}

// TestPEsPerProcHonouredOrRejected pins, for every registered policy,
// what a request for two PUs per rank gets: the LAMA claims two PUs for
// each rank; every other policy decides each rank's PUs itself and
// refuses the request with place.ErrPEsPerProc rather than place one PU
// per rank. At PEsPerProc 1 every policy places one PU per rank.
func TestPEsPerProcHonouredOrRejected(t *testing.T) {
	honours := map[string]bool{
		"lama": true, "by-slot": false, "by-node": false, "pack": false, "scatter": false,
		"random": false, "plane": false, "torus": false, "treematch": false, "rankfile": false,
	}
	if got := place.Names(); len(got) != len(honours) {
		t.Fatalf("registered %v: pin every policy", got)
	}
	for _, name := range place.Names() {
		want, ok := honours[name]
		if !ok {
			t.Fatalf("policy %q is not pinned", name)
		}
		for _, pes := range []int{1, 2} {
			b := base(t)
			b.Layout = core.MustParseLayout("csbn") // cores hold two PUs
			b.Opts.PEsPerProc = pes
			jobs, err := all.Jobs(name, b)
			if err != nil {
				t.Fatal(err)
			}
			m, err := place.Run(context.Background(), jobs[0].Policy, jobs[0].Req)
			switch {
			case pes > 1 && !want:
				if !errors.Is(err, place.ErrPEsPerProc) {
					t.Errorf("%s pes=%d: err %v, want place.ErrPEsPerProc", name, pes, err)
				}
				continue
			case err != nil:
				t.Errorf("%s pes=%d: %v", name, pes, err)
				continue
			}
			for _, p := range m.Placements {
				if len(p.PUs) != pes {
					t.Errorf("%s pes=%d: rank %d claims %v", name, pes, p.Rank, p.PUs)
					break
				}
			}
		}
	}
}
