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
//
// With -ft it instead runs a supervised (fault-tolerant) job and reports
// the recovery pipeline's metrics:
//
//	lamasim -np 64 -nodes 8 --ft=respawn --spares=1 -fail-node 0 -fail-step 10
//
// With -listen the run serves its telemetry live while it executes
// (/metrics, /metrics.json, /events, /debug/pprof); combine with
// -step-delay to stretch a churn run long enough to scrape:
//
//	lamasim -churn -steps 2000 -step-delay 10ms -listen 127.0.0.1:8321
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lama/internal/appsim"
	"lama/internal/bind"
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
	"lama/internal/orte"
	"lama/internal/place"
	"lama/internal/place/all"
	"lama/internal/rm"
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
	ft := fs.String("ft", "", "fault-tolerance policy: abort | shrink | respawn (runs a supervised job)")
	layout := fs.String("layout", "csbnh", "LAMA layout for the supervised run (-ft)")
	spares := fs.Int("spares", 0, "whole spare nodes to reserve (-ft)")
	maxRestarts := fs.Int("max-restarts", 1, "respawn budget, negative = unlimited (-ft)")
	steps := fs.Int("steps", 50, "virtual scheduler steps (-ft)")
	stepDelay := fs.Duration("step-delay", 0, "wall-clock sleep per virtual step (-ft/-churn), so -listen scrapers can watch the run live")
	failNode := fs.Int("fail-node", -1, "inject: fail this node at -fail-step (-ft)")
	failRank := fs.Int("fail-rank", -1, "inject: crash this rank at -fail-step (-ft)")
	failStep := fs.Int("fail-step", 10, "inject: failure step (-ft)")
	mtbf := fs.Float64("mtbf", 0, "inject: per-rank exponential MTBF in steps, 0 = off (-ft); per-node MTBF for -churn (0 = 2x horizon)")
	seed := fs.Int64("seed", 1, "rng seed for -mtbf")
	detect := fs.Int("detect", 0, "detection window in steps, 0 = routed-tree default (-ft)")
	churn := fs.Bool("churn", false, "run the long-horizon churn scenario: fault-aware placement, MTBF node failures, periodic grow/shrink")
	poolSize := fs.Int("pool", 0, "pool size in nodes for -churn (0 = nodes+spares+4)")
	churnPolicy := fs.String("churn-policy", "lama", "placement policy the churn pipeline starts from")
	chassisSize := fs.Int("chassis-size", 2, "nodes per chassis in the failure-domain model (-churn)")
	rackSize := fs.Int("rack-size", 2, "chassis per rack in the failure-domain model (-churn)")
	resizePeriod := fs.Int("resize-period", 0, "steps between alternating grow/shrink resizes, 0 = off (-churn)")
	resizeDelta := fs.Int("resize-delta", 0, "ranks per resize, 0 = np/8 (-churn)")
	critical := fs.Int("critical", 0, "number of leading ranks to spread across failure domains (-churn)")
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
	if *churn {
		return runChurn(out, sp, obsFlags, o, closeObs, churnConfig{
			spec: *spec, np: *np, nodes: *nodes, layout: *layout,
			policy: *churnPolicy, spares: *spares, pool: *poolSize,
			steps: *steps, mtbf: *mtbf, seed: *seed, detect: *detect,
			chassisSize: *chassisSize, rackSize: *rackSize,
			resizePeriod: *resizePeriod, resizeDelta: *resizeDelta,
			critical: *critical, maxRestarts: *maxRestarts,
			stepDelay: *stepDelay,
		})
	}
	if *ft != "" {
		return runFT(out, sp, obsFlags, o, closeObs, ftConfig{
			spec: *spec, np: *np, nodes: *nodes, layout: *layout,
			policy: *ft, spares: *spares, maxRestarts: *maxRestarts,
			steps: *steps, failNode: *failNode, failRank: *failRank,
			failStep: *failStep, mtbf: *mtbf, seed: *seed, detect: *detect,
			stepDelay: *stepDelay,
		})
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

type ftConfig struct {
	spec                string
	np, nodes           int
	layout, policy      string
	spares, maxRestarts int
	steps               int
	failNode, failRank  int
	failStep            int
	mtbf                float64
	seed                int64
	detect              int
	stepDelay           time.Duration
}

// runFT drives the full fault-tolerance pipeline: allocate compute nodes
// plus spares from a resource-manager pool, launch under supervision,
// inject the requested failures, and report the recovery metrics.
func runFT(out io.Writer, sp hw.Spec, obsFlags *obs.CLIFlags, o *obs.Observer,
	closeObs func() error, cfg ftConfig) error {
	policy, err := orte.ParseFTPolicy(cfg.policy)
	if err != nil {
		return err
	}
	layout, err := core.ParseLayout(cfg.layout)
	if err != nil {
		return err
	}
	pool := cluster.Homogeneous(cfg.nodes+cfg.spares, sp)
	mgr := rm.NewManager(pool)
	slots := cfg.nodes * usableCores(pool.Node(0))
	alloc, err := mgr.AllocWithSpares(rm.WholeNode, slots, cfg.spares)
	if err != nil {
		return err
	}
	sup := &orte.Supervisor{
		Runtime:    orte.NewRuntime(alloc.Granted),
		Layout:     layout,
		Opts:       core.Options{Obs: o},
		BindPolicy: bind.Specific,
		BindLevel:  hw.LevelPU,
		Config: orte.SuperviseConfig{
			Policy:          policy,
			MaxRestarts:     cfg.maxRestarts,
			DetectionWindow: cfg.detect,
			StepDelay:       cfg.stepDelay,
		},
		SpareProvider: func(failedNode int) (int, error) {
			res, err := mgr.Realloc(alloc, alloc.Granted.Nodes[failedNode].Name,
				rm.RetryConfig{Obs: o})
			if err != nil {
				return -1, err
			}
			return res.GrantedIndex, nil
		},
	}

	var plan orte.InjectionPlan
	if cfg.failRank >= 0 {
		plan.Failures = append(plan.Failures, orte.Failure{Rank: cfg.failRank, Step: cfg.failStep})
	}
	if cfg.failNode >= 0 {
		plan.NodeFailures = append(plan.NodeFailures, orte.NodeFailure{Node: cfg.failNode, Step: cfg.failStep})
	}
	if cfg.mtbf > 0 {
		fails, err := orte.MTBFSchedule(cfg.seed, cfg.np, cfg.steps, cfg.mtbf)
		if err != nil {
			return err
		}
		plan.Failures = append(plan.Failures, fails...)
	}

	fmt.Fprintf(out, "cluster: %d x %s + %d spare(s), layout %s, np=%d, steps=%d, ft=%s\n\n",
		cfg.nodes, cfg.spec, cfg.spares, cfg.layout, cfg.np, cfg.steps, policy)
	rep, err := sup.Run(cfg.np, cfg.steps, plan)
	if err != nil {
		return err
	}
	for _, ev := range rep.Events {
		fmt.Fprintf(out, "step %4d: %-8s failure from step %d, ranks %v", ev.DetectedStep, ev.Action, ev.FailStep, ev.Ranks)
		if len(ev.FailedNodes) > 0 {
			fmt.Fprintf(out, ", nodes %v", ev.FailedNodes)
		}
		if ev.Action == "respawn" {
			fmt.Fprintf(out, " (moved %d, replayed %d steps)", ev.RanksMoved, ev.ReplaySteps)
		}
		if ev.Reason != "" {
			fmt.Fprintf(out, ": %s", ev.Reason)
		}
		fmt.Fprintln(out)
	}
	if len(rep.Events) > 0 {
		fmt.Fprintln(out)
	}
	rsum := metrics.SummarizeRecovery(rep)
	fmt.Fprintln(out, rsum.Render())
	rsum.Record(o.Reg())
	if rep.Map != nil {
		metrics.Summarize(alloc.Granted, rep.Map).Record(o.Reg())
	}
	if err := closeObs(); err != nil {
		return err
	}
	report := o.Report("lamasim", map[string]any{
		"np": cfg.np, "nodes": cfg.nodes, "spec": cfg.spec, "layout": cfg.layout,
		"ft": policy.String(), "spares": cfg.spares, "steps": cfg.steps,
		"maxRestarts": cfg.maxRestarts, "detectionWindow": rep.DetectionWindow,
	})
	report.Recovery = recoveryTimeline(rep.Events)
	return obsFlags.WriteReport(report)
}

// recoveryTimeline converts the supervisor's recovery events into the run
// report's neutral timeline form.
func recoveryTimeline(events []orte.RecoveryEvent) []obs.TimelineEntry {
	var tl []obs.TimelineEntry
	for _, ev := range events {
		detail := map[string]any{"failStep": ev.FailStep, "ranks": ev.Ranks}
		if len(ev.FailedNodes) > 0 {
			detail["failedNodes"] = ev.FailedNodes
		}
		if ev.Reason != "" {
			detail["reason"] = ev.Reason
		}
		if ev.Action == "respawn" {
			detail["ranksMoved"] = ev.RanksMoved
			detail["replaySteps"] = ev.ReplaySteps
			detail["remapUs"] = ev.RemapUs
		}
		tl = append(tl, obs.TimelineEntry{Step: ev.DetectedStep, Action: ev.Action, Detail: detail})
	}
	return tl
}

// usableCores counts a node's usable cores with at least one usable PU.
func usableCores(n *cluster.Node) int {
	count := 0
	for _, c := range n.Topo.Objects(hw.LevelCore) {
		if c.Usable() && len(c.UsablePUs()) > 0 {
			count++
		}
	}
	return count
}
