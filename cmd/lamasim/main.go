// Command lamasim evaluates mappings: it maps a job several ways (LAMA
// layouts, baselines, traffic-aware), costs a chosen traffic pattern on a
// chosen network model, and reports either static communication metrics,
// BSP application iteration times, or MPI collective completion times.
// Each way is a place.Job (policy, post-pass stages, request), and one
// place.Sweep places them all.
//
// Usage:
//
//	lamasim -np 64 -nodes 8 -spec nehalem-ep -pattern stencil2d -net fat-tree
//	lamasim -np 64 -nodes 8 -pattern gtc -net torus -mode app -compute 500
//	lamasim -np 16 -nodes 8 -mode coll -bytes 1048576
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lama/internal/appsim"
	"lama/internal/cluster"
	"lama/internal/coll"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/msgsim"
	"lama/internal/netorder"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
	"lama/internal/place/all"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamasim", flag.ContinueOnError)
	np := fs.Int("np", 64, "number of processes")
	nodes := fs.Int("nodes", 8, "number of nodes")
	spec := fs.String("spec", "nehalem-ep", "node spec (preset or colon form)")
	patternName := fs.String("pattern", "stencil2d", "traffic pattern (see internal/commpat)")
	trafficPath := fs.String("traffic", "", "traffic matrix file (edge list; overrides -pattern)")
	bytesPer := fs.Float64("bytes", 1<<20, "bytes per exchange")
	netName := fs.String("net", "flat", "network model: flat | fat-tree[:leaf] | torus[:XxYxZ] | dragonfly[:group]")
	netRefine := fs.Bool("net-refine", false, "wrap every strategy with network-aware node ordering + delta-J swap refinement")
	policyList := fs.String("policy", "", `comma-separated placement policies to compare, or "all" for every registered one (default: LAMA layouts + treematch + random)`)
	mode := fs.String("mode", "static", "report: static | app | coll | fluid")
	compute := fs.Float64("compute", 500, "per-iteration compute time in us (mode app)")
	iters := fs.Int("iters", 1000, "iterations (mode app)")
	seed := fs.Int64("seed", 1, "rng seed for the random policy (-policy)")
	obsFlags := obs.RegisterFlags(fs)
	version := obs.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(out, "lamasim")
		return nil
	}

	sp, err := hw.ParseSpec(*spec)
	if err != nil {
		return err
	}
	o, closeObs, err := obsFlags.Observer(os.Stderr)
	if err != nil {
		return err
	}
	c := cluster.Homogeneous(*nodes, sp)
	net, err := netsim.ParseNetwork(*netName, *nodes)
	if err != nil {
		return err
	}
	model := netsim.NewModel(net)

	var tm *commpat.Matrix
	if *trafficPath != "" {
		text, err := os.ReadFile(*trafficPath)
		if err != nil {
			return err
		}
		tm, err = commpat.ParseMatrix(string(text))
		if err != nil {
			return err
		}
		if tm.Ranks() != *np {
			return fmt.Errorf("traffic file has %d ranks but -np is %d", tm.Ranks(), *np)
		}
		*patternName = *trafficPath
	} else {
		gen, ok := commpat.ByName(*patternName)
		if !ok {
			return fmt.Errorf("unknown pattern %q (see commpat.Patterns)", *patternName)
		}
		tm = gen(*np, *bytesPer)
	}

	base := place.Request{Cluster: c, NP: *np, Traffic: tm, Seed: 1, Opts: core.Options{Obs: o}}
	labels, jobs := defaultJobs(base)
	if *policyList != "" {
		base.Seed = *seed
		if jobs, err = all.Jobs(*policyList, base); err != nil {
			return err
		}
		labels = make([]string, len(jobs))
		for i, j := range jobs {
			labels[i] = j.Policy.Name()
		}
	}
	if *netRefine {
		stages := []place.Stage{&netorder.Stage{Net: net}, &netorder.Refine{Net: net}}
		for i := range jobs {
			jobs[i].Stages = stages
			labels[i] += "+net"
		}
	}
	maps, err := place.Sweep(context.Background(), jobs, 0)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "cluster: %d x %s (%d usable PUs), network %s, pattern %s, np=%d\n\n",
		*nodes, *spec, c.TotalUsablePUs(), net.Name(), *patternName, *np)

	switch *mode {
	case "static":
		t := metrics.NewTable("static communication metrics",
			"strategy", "total (ms)", "inter-node MB", "avg hops", "max link MB")
		for i, m := range maps {
			rep, err := model.Evaluate(c, m, tm)
			if err != nil {
				return err
			}
			t.AddRow(labels[i], metrics.F(rep.TotalTime/1000, 3),
				metrics.F(rep.InterBytes/1e6, 1), metrics.F(rep.AvgHops, 2),
				metrics.F(rep.MaxLinkLoad/1e6, 2))
		}
		fmt.Fprintln(out, t.String())
	case "app":
		t := metrics.NewTable(
			fmt.Sprintf("BSP application, %d iterations x %.0f us compute", *iters, *compute),
			"strategy", "iteration (us)", "comm share", "bound by")
		for i, m := range maps {
			res, err := appsim.Run(c, m, model, tm, appsim.Config{ComputeUs: *compute, Iterations: *iters})
			if err != nil {
				return err
			}
			t.AddRow(labels[i], metrics.F(res.IterUs, 1),
				metrics.F(res.CommUs/res.IterUs*100, 1)+"%", res.BoundBy)
		}
		fmt.Fprintln(out, t.String())
	case "coll":
		t := metrics.NewTable("collective completion times (ms)",
			"strategy", "broadcast", "allreduce-rd", "allreduce-ring", "alltoall", "barrier")
		for i, m := range maps {
			row := []string{labels[i]}
			for _, op := range []coll.Op{coll.Broadcast, coll.AllreduceRD,
				coll.AllreduceRing, coll.Alltoall, coll.Barrier} {
				res, err := coll.Run(op, c, m, model, *bytesPer)
				if err != nil {
					return err
				}
				row = append(row, metrics.F(res.TimeUs/1000, 3))
			}
			t.AddRow(row...)
		}
		fmt.Fprintln(out, t.String())
	case "fluid":
		t := metrics.NewTable("flow-level fluid simulation (max-min fair sharing)",
			"strategy", "makespan (ms)", "events")
		msgs := msgsim.FromMatrix(tm)
		for i, m := range maps {
			res, err := msgsim.Run(c, m, model, msgs)
			if err != nil {
				return err
			}
			t.AddRow(labels[i], metrics.F(res.Makespan/1000, 3), metrics.I(res.Events))
		}
		fmt.Fprintln(out, t.String())
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err := closeObs(); err != nil {
		return err
	}
	return obsFlags.WriteReport(o.Report("lamasim", map[string]any{
		"np": *np, "nodes": *nodes, "spec": *spec, "pattern": *patternName,
		"net": *netName, "mode": *mode,
	}))
}

// defaultJobs is the comparison set without -policy: four LAMA layouts,
// treematch, and random, each labeled for the report.
func defaultJobs(base place.Request) ([]string, []place.Job) {
	defaults := []struct{ label, policy, layout string }{
		{"lama csbnh (pack)", "lama", "csbnh"},
		{"lama ncsbh (cycle)", "lama", "ncsbh"},
		{"lama scbnh (sockets)", "lama", "scbnh"},
		{"lama hcsbn (threads)", "lama", "hcsbn"},
		{"treematch", "treematch", ""},
		{"random", "random", ""},
	}
	labels := make([]string, len(defaults))
	reqs := make([]place.Request, len(defaults))
	jobs := make([]place.Job, len(defaults))
	for i, d := range defaults {
		p, _ := place.Lookup(d.policy) // built in, linked by place/all
		labels[i], reqs[i] = d.label, base
		if d.layout != "" {
			reqs[i].Layout = core.MustParseLayout(d.layout)
		}
		jobs[i] = place.Job{Policy: p, Req: &reqs[i]}
	}
	return labels, jobs
}
