// Command lamamap plans process placements the way the paper's mpirun
// integration does: it builds (or loads) a cluster, runs the LAMA (or a
// rankfile) through the four CLI abstraction levels, and prints the map,
// the binding widths, and a Figure 2-style per-node view.
//
// Usage:
//
//	lamamap -np 24 -cluster 2xfig2 -- --lama-map scbnh --bind-to core
//	lamamap -np 24 -hostfile hosts.txt -- --map-by socket
//	lamamap -np 4 -cluster 2xfig2 -rankfile ranks.txt
//
// The -cluster form is "<nodes>x<spec>", where <spec> is a preset name or
// colon form accepted by the topology parser. Arguments after "--" are
// mpirun-style options (see internal/mpirun).
//
// The shared observability flags apply: -trace-out / -metrics-out record
// the run, and -listen serves it live (/metrics, /events, /debug/pprof)
// while it executes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/mpirun"
	"lama/internal/netorder"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
	"lama/internal/rankfile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamamap:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamamap", flag.ContinueOnError)
	np := fs.Int("np", 0, "number of processes")
	clusterSpec := fs.String("cluster", "2xnehalem-ep", "cluster as <nodes>x<spec>")
	hostfile := fs.String("hostfile", "", "hostfile path (overrides -cluster)")
	rankfilePath := fs.String("rankfile", "", "rankfile path (Level 4)")
	policy := fs.String("policy", "", "placement policy from the registry (see -list-policies)")
	listPolicies := fs.Bool("list-policies", false, "list registered placement policies and exit")
	check := fs.Bool("check", false, "validate the planned map against the cluster and print one ok line")
	patternName := fs.String("pattern", "", "traffic pattern for traffic-aware policies (see internal/commpat)")
	bytesPer := fs.Float64("bytes", 1<<20, "bytes per exchange for -pattern")
	netSpec := fs.String("net", "", "network model for network-aware post-passes: flat, fat-tree[:leaf], dragonfly[:group], torus[:XxYxZ] (needs -pattern)")
	netRefine := fs.Bool("net-refine", false, "add delta-J pairwise-swap refinement after the -net node ordering")
	seed := fs.Int64("seed", 1, "seed for randomized policies")
	byNode := fs.Bool("render-by-node", true, "print the Figure 2-style per-node view")
	asJSON := fs.Bool("json", false, "emit the map as JSON and exit")
	emitRankfile := fs.Bool("emit-rankfile", false, "emit the map as a Level 4 rankfile and exit")
	trace := fs.Int("trace", 0, "print the first N mapping-iteration events (Levels 1-3)")
	obsFlags := obs.RegisterFlags(fs)
	version := obs.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(out, "lamamap")
		return nil
	}
	if *listPolicies {
		for _, name := range place.Names() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	c, err := buildCluster(*clusterSpec, *hostfile)
	if err != nil {
		return err
	}
	o, closeObs, err := obsFlags.Observer(os.Stderr)
	if err != nil {
		return err
	}

	mpiArgs := []string{"-np", strconv.Itoa(*np)}
	if *rankfilePath != "" {
		text, err := os.ReadFile(*rankfilePath)
		if err != nil {
			return err
		}
		mpiArgs = append(mpiArgs, "--rankfile-text", string(text))
	}
	if *policy != "" {
		mpiArgs = append(mpiArgs, "--policy", *policy)
	}
	mpiArgs = append(mpiArgs, fs.Args()...)

	req, err := mpirun.Parse(mpiArgs)
	if err != nil {
		return err
	}
	req.Opts.Obs = o
	req.Seed = *seed
	if *patternName != "" {
		gen, ok := commpat.ByName(*patternName)
		if !ok {
			return fmt.Errorf("unknown pattern %q (see commpat.Patterns)", *patternName)
		}
		req.Traffic = gen(req.NP, *bytesPer)
	}
	if *netSpec != "" {
		if req.Traffic == nil {
			return fmt.Errorf("-net requires -pattern (the passes need a traffic matrix)")
		}
		net, err := netsim.ParseNetwork(*netSpec, c.NumNodes())
		if err != nil {
			return err
		}
		req.Stages = append(req.Stages, &netorder.Stage{Net: net})
		if *netRefine {
			req.Stages = append(req.Stages, &netorder.Refine{Net: net})
		}
	} else if *netRefine {
		return fmt.Errorf("-net-refine requires -net")
	}
	res, err := mpirun.Execute(context.Background(), req, c)
	if err != nil {
		return err
	}
	metrics.Summarize(c, res.Map).Record(o.Reg())
	finishObs := func() error {
		if err := closeObs(); err != nil {
			return err
		}
		return obsFlags.WriteReport(o.Report("lamamap", map[string]any{
			"np": req.NP, "cluster": *clusterSpec, "level": req.Level,
			"policy": req.PolicyName(), "layout": req.Layout.String(),
			"bind": req.BindPolicy.String(),
		}))
	}

	if *check {
		if err := res.Map.Validate(c); err != nil {
			return err
		}
		fmt.Fprintf(out, "ok: policy %s placed %d ranks on %d nodes\n",
			req.PolicyName(), res.Map.NumRanks(), len(res.Map.RanksByNode()))
		return finishObs()
	}
	if *asJSON {
		data, err := json.MarshalIndent(res.Map, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return finishObs()
	}
	if *emitRankfile {
		f, err := rankfile.FromMap(res.Map)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rankfile.Format(f))
		return finishObs()
	}

	fmt.Fprintf(out, "cluster:\n%s\n", c.Summary())
	fmt.Fprintf(out, "abstraction level: %d\n", req.Level)
	if req.Level != 4 {
		fmt.Fprintf(out, "process layout:    %s\n", req.Layout)
	}
	fmt.Fprintf(out, "binding:           %s\n\n", req.BindPolicy)
	fmt.Fprint(out, res.Map.Render())
	if *byNode {
		fmt.Fprintf(out, "\n%s", res.Map.RenderByNode(c))
	}
	if req.ReportBindings {
		fmt.Fprintf(out, "\nbindings:\n%s", res.Plan.Render(c))
	}
	if *trace > 0 {
		if req.Level == 4 {
			return fmt.Errorf("-trace requires a LAMA mapping (Levels 1-3)")
		}
		// The listing re-maps; without the observer it stays out of the
		// run report, which already counts the placement above.
		opts := req.Opts
		opts.Obs = nil
		mapper, err := core.NewMapper(c, req.Layout, opts)
		if err != nil {
			return err
		}
		_, events, err := mapper.MapTraced(req.NP, *trace)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\niteration trace (first %d events):\n", len(events))
		for _, e := range events {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}

	s := metricsSummary(c, res)
	fmt.Fprintf(out, "\n%s", s)
	return finishObs()
}

func buildCluster(spec, hostfile string) (*cluster.Cluster, error) {
	if hostfile != "" {
		text, err := os.ReadFile(hostfile)
		if err != nil {
			return nil, err
		}
		def, _ := hw.Preset("nehalem-ep")
		return cluster.ParseHostfile(string(text), def)
	}
	n, sp, err := cluster.ParseNodesSpec(spec, "-cluster")
	if err != nil {
		return nil, err
	}
	return cluster.Homogeneous(n, sp), nil
}

func metricsSummary(c *cluster.Cluster, res *mpirun.Result) string {
	t := metrics.NewTable("summary", "metric", "value")
	per := res.Map.RanksByNode()
	t.AddRow("ranks", metrics.I(res.Map.NumRanks()))
	t.AddRow("nodes used", metrics.I(len(per)))
	t.AddRow("oversubscribed", fmt.Sprint(res.Map.Oversubscribed()))
	t.AddRow("sweeps", metrics.I(res.Map.Sweeps))
	if len(res.Plan.Bindings) > 0 {
		t.AddRow("binding width (rank 0)", metrics.I(res.Plan.Bindings[0].Width))
	}
	return t.String()
}
