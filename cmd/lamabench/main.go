// Command lamabench regenerates the paper's exhibits: it runs the
// experiments registered in internal/exper (Table I, Figure 1, Figure 2,
// the 362,880-permutation claim, and the simulator-backed motivation and
// comparison studies) and prints their result tables.
//
// Usage:
//
//	lamabench                  # run everything at sampled scale
//	lamabench -exp E5          # run one experiment
//	lamabench -full            # exhaustive variants (E4 enumerates all 9!)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/exper"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
	"lama/internal/place/all"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamabench", flag.ContinueOnError)
	expID := fs.String("exp", "", "run a single experiment (see -list)")
	full := fs.Bool("full", false, "run exhaustive variants")
	seed := fs.Int64("seed", 1, "seed for randomized experiments")
	list := fs.Bool("list", false, "list experiments and exit")
	policyList := fs.String("policy", "", `cross-policy placement sweep instead of the experiments: comma-separated registry policies, or "all"`)
	netSpec := fs.String("net", "", "network-aware placement scaling series instead of the experiments: flat, fat-tree[:leaf], dragonfly[:group], torus[:XxYxZ]")
	netNPs := fs.String("net-np", "4096,16384,65536,102400", "comma-separated rank counts for the -net series")
	netRefine := fs.Bool("net-refine", true, "include the delta-J swap refinement pass in the -net series")
	obsFlags := obs.RegisterFlags(fs)
	version := obs.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(out, "lamabench")
		return nil
	}
	o, closeObs, err := obsFlags.Observer(os.Stderr)
	if err != nil {
		return err
	}
	opts := exper.Options{Full: *full, Seed: *seed, Obs: o}

	if *list {
		for _, e := range exper.All() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Exhibit)
		}
		return closeObs()
	}

	if *netSpec != "" {
		nps, err := parseNPs(*netNPs)
		if err != nil {
			return err
		}
		rows, err := exper.NetScale(*netSpec, nps, *netRefine, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, exper.NetScaleTable(*netSpec, rows).String())
		if err := closeObs(); err != nil {
			return err
		}
		return obsFlags.WriteReport(o.Report("lamabench", map[string]any{
			"net": *netSpec, "netNP": *netNPs, "netRefine": *netRefine,
		}))
	}

	if *policyList != "" {
		t, err := policySweep(*policyList, *seed, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.String())
		if err := closeObs(); err != nil {
			return err
		}
		return obsFlags.WriteReport(o.Report("lamabench", map[string]any{
			"policy": *policyList, "seed": *seed,
		}))
	}

	var todo []exper.Experiment
	if *expID != "" {
		e, err := exper.ByID(*expID)
		if err != nil {
			return err
		}
		todo = []exper.Experiment{e}
	} else {
		todo = exper.All()
	}

	for _, e := range todo {
		fmt.Fprintf(out, "### %s — %s\n\n", e.ID, e.Exhibit)
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
	}
	if err := closeObs(); err != nil {
		return err
	}
	return obsFlags.WriteReport(o.Report("lamabench", map[string]any{
		"exp": *expID, "full": *full, "seed": *seed,
	}))
}

// parseNPs parses the -net-np comma list into positive rank counts.
func parseNPs(list string) ([]int, error) {
	var nps []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -net-np entry %q (want positive integers)", part)
		}
		nps = append(nps, n)
	}
	if len(nps) == 0 {
		return nil, fmt.Errorf("-net-np %q selects no scale points", list)
	}
	return nps, nil
}

// policySweep runs every selected registry policy over the reference
// workload (np=64 on 8 x nehalem-ep, GTC traffic) through the
// policy-generic sweep pool, then costs each placement on a fat-tree
// network. One invocation compares the full strategy space.
func policySweep(list string, seed int64, o *obs.Observer) (*metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	np := 64
	tm := commpat.GTC(np, 1<<20)
	jobs, err := all.Jobs(list, place.Request{
		Cluster: c, NP: np, Traffic: tm, Seed: seed,
		Opts: core.Options{Obs: o},
	})
	if err != nil {
		return nil, err
	}
	maps, err := place.Sweep(context.Background(), jobs, 0)
	if err != nil {
		return nil, err
	}
	model := netsim.NewModel(netsim.NewFatTree(4))
	t := metrics.NewTable("cross-policy sweep (np=64, 8 x nehalem-ep, gtc traffic, fat-tree)",
		"policy", "total (ms)", "inter-node MB", "avg hops", "nodes used")
	for i, m := range maps {
		rep, err := model.Evaluate(c, m, tm)
		if err != nil {
			return nil, err
		}
		name := jobs[i].Policy.Name()
		t.AddRow(name, metrics.F(rep.TotalTime/1000, 3),
			metrics.F(rep.InterBytes/1e6, 1), metrics.F(rep.AvgHops, 2),
			metrics.I(len(m.RanksByNode())))
	}
	return t, nil
}
