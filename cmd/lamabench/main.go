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
//	lamabench -json perf.json  # also write machine-readable timings
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lama/internal/analysis"
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

// reportSchema is the current -json schema tag. v2 added the provenance
// header (goVersion, gitRevision, numCPU); parseReport still accepts v1
// documents, whose header fields simply come back empty.
const reportSchema = "lamabench/v2"

// jsonReport is the machine-readable output of a lamabench run (-json).
// The schema is stable: fields are only ever added, never renamed, so CI
// trend tooling can rely on it across versions. The one removal, the
// "serve" rows of the retired -serve harness, is ignored when an archived
// document carrying them is parsed.
type jsonReport struct {
	Schema string `json:"schema"` // "lamabench/v2"
	// GoVersion, GitRevision, and NumCPU identify the build and host the
	// timings came from (v2): toolchain, vcs.revision when the binary was
	// built from a checkout, and runtime.NumCPU.
	GoVersion   string           `json:"goVersion,omitempty"`
	GitRevision string           `json:"gitRevision,omitempty"`
	NumCPU      int              `json:"numCPU,omitempty"`
	Full        bool             `json:"full"`
	Seed        int64            `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
	// Policies holds the cross-policy placement sweep rows (-policy), one
	// per registered policy run; added in v2 additively.
	Policies []jsonPolicyRow `json:"policies,omitempty"`
	// NetCost holds the network-aware placement scaling series (-net), one
	// row per np scale point; added additively, v2-compatible.
	NetCost []exper.NetCostRow `json:"netcost,omitempty"`
	// Lint is the static-analysis provenance of the run (added in v2
	// additively): which lamavet suite version the numbers were taken
	// under and whether the tree was clean when they were.
	Lint         *jsonLint `json:"lint,omitempty"`
	TotalSeconds float64   `json:"totalSeconds"`
}

// jsonLint records the static-analysis state a benchmark ran under, so a
// perf number can be traced to a tree that did (or did not) hold the
// hot-path and determinism invariants.
type jsonLint struct {
	Tool    string `json:"tool"`    // "lamavet"
	Version string `json:"version"` // analysis.Version
	// Status is "clean" or "dirty" (from -lint=run or a CI-supplied
	// verdict), or "unchecked" when no verdict was taken.
	Status   string `json:"status"`
	Findings int    `json:"findings,omitempty"`
}

// lintProvenance resolves the -lint flag: "run" executes the lamavet
// suite over the whole module in-process, "clean"/"dirty" trust a
// verdict the caller (CI) already has, "unchecked" records that none was
// taken.
func lintProvenance(mode string) (*jsonLint, error) {
	l := &jsonLint{Tool: "lamavet", Version: analysis.Version}
	switch mode {
	case "unchecked", "clean", "dirty":
		l.Status = mode
	case "run":
		// Anchor ./... at the module root so the whole-module checks see
		// the whole module regardless of the benchmark's working directory.
		dir := ""
		if gomod, err := exec.Command("go", "env", "GOMOD").Output(); err == nil {
			if p := strings.TrimSpace(string(gomod)); p != "" && p != "/dev/null" {
				dir = filepath.Dir(p)
			}
		}
		diags, _, err := analysis.RunPackages(dir, []string{"./..."}, analysis.Suite(), true)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if len(diags) == 0 {
			l.Status = "clean"
		} else {
			l.Status = "dirty"
			l.Findings = len(diags)
		}
	default:
		return nil, fmt.Errorf(`unknown -lint mode %q (want "run", "clean", "dirty", or "unchecked")`, mode)
	}
	return l, nil
}

// jsonPolicyRow is one policy's result from the cross-policy sweep: the
// placement shape plus its simulated communication cost on the reference
// workload (GTC traffic, fat-tree network).
type jsonPolicyRow struct {
	Policy    string  `json:"policy"`
	NP        int     `json:"np"`
	Nodes     int     `json:"nodes"`
	NodesUsed int     `json:"nodesUsed"`
	TotalMs   float64 `json:"totalMs"`
	InterMB   float64 `json:"interMB"`
	AvgHops   float64 `json:"avgHops"`
}

// parseReport decodes a lamabench -json document, accepting the current
// v2 schema and the header-less v1 documents older CI runs archived.
func parseReport(data []byte) (*jsonReport, error) {
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	switch rep.Schema {
	case reportSchema, "lamabench/v1":
		return &rep, nil
	default:
		return nil, fmt.Errorf("lamabench: unknown report schema %q", rep.Schema)
	}
}

// jsonExperiment is one experiment's timing record.
type jsonExperiment struct {
	ID          string  `json:"id"`
	Exhibit     string  `json:"exhibit"`
	WallSeconds float64 `json:"wallSeconds"`
	// Placements is the number of rank placements the mapping engines
	// planned during the experiment (0 for experiments that do not map).
	Placements int64 `json:"placements"`
	// PlacementsPerSec is Placements/WallSeconds (0 when no placements).
	PlacementsPerSec float64 `json:"placementsPerSec"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamabench", flag.ContinueOnError)
	expID := fs.String("exp", "", "run a single experiment (E1..E11)")
	full := fs.Bool("full", false, "run exhaustive variants")
	seed := fs.Int64("seed", 1, "seed for randomized experiments")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonPath := fs.String("json", "", "write per-experiment wall time and placements/sec to this file")
	policyList := fs.String("policy", "", `cross-policy placement sweep instead of the experiments: comma-separated registry policies, or "all"`)
	netSpec := fs.String("net", "", "network-aware placement scaling series instead of the experiments: flat, fat-tree[:leaf], dragonfly[:group], torus[:XxYxZ]")
	netNPs := fs.String("net-np", "4096,16384,65536,102400", "comma-separated rank counts for the -net series")
	netRefine := fs.Bool("net-refine", true, "include the delta-J swap refinement pass in the -net series")
	lintMode := fs.String("lint", "unchecked", `static-analysis provenance recorded in -json: "run" executes the lamavet suite over ./..., "clean"/"dirty" record a CI-supplied verdict, "unchecked" records that no verdict was taken`)
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

	// The provenance header and the /metrics lama_build_info gauge draw
	// from the same source, so report and scrape identify builds alike.
	build := obs.CurrentBuildInfo()
	report := jsonReport{
		Schema: reportSchema, Full: *full, Seed: *seed,
		GoVersion: build.GoVersion, GitRevision: build.GitRevision, NumCPU: build.NumCPU,
	}
	if report.Lint, err = lintProvenance(*lintMode); err != nil {
		return err
	}
	started := time.Now()

	if *netSpec != "" {
		nps, err := parseNPs(*netNPs)
		if err != nil {
			return err
		}
		rows, err := exper.NetScale(*netSpec, nps, *netRefine, o)
		if err != nil {
			return err
		}
		report.NetCost = rows
		fmt.Fprintln(out, exper.NetScaleTable(*netSpec, rows).String())
		report.TotalSeconds = time.Since(started).Seconds()
		if err := writeJSON(*jsonPath, &report); err != nil {
			return err
		}
		if err := closeObs(); err != nil {
			return err
		}
		return obsFlags.WriteReport(o.Report("lamabench", map[string]any{
			"net": *netSpec, "netNP": *netNPs, "netRefine": *netRefine,
		}))
	}

	if *policyList != "" {
		rows, t, err := policySweep(*policyList, *seed, o)
		if err != nil {
			return err
		}
		report.Policies = rows
		fmt.Fprintln(out, t.String())
		report.TotalSeconds = time.Since(started).Seconds()
		if err := writeJSON(*jsonPath, &report); err != nil {
			return err
		}
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
		expStart := time.Now()
		placedBefore := core.PlacedRanks()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		wall := time.Since(expStart).Seconds()
		placed := core.PlacedRanks() - placedBefore
		rec := jsonExperiment{
			ID: e.ID, Exhibit: e.Exhibit,
			WallSeconds: wall, Placements: placed,
		}
		if placed > 0 && wall > 0 {
			rec.PlacementsPerSec = float64(placed) / wall
		}
		report.Experiments = append(report.Experiments, rec)
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
	}
	report.TotalSeconds = time.Since(started).Seconds()

	if err := writeJSON(*jsonPath, &report); err != nil {
		return err
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

// writeJSON marshals the report to path; an empty path is a no-op.
func writeJSON(path string, report *jsonReport) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write -json report: %v", err)
	}
	return nil
}

// policySweep runs every selected registry policy over the reference
// workload (np=64 on 8 x nehalem-ep, GTC traffic) through the
// policy-generic sweep pool, then costs each placement on a fat-tree
// network. One invocation compares the full strategy space.
func policySweep(list string, seed int64, o *obs.Observer) ([]jsonPolicyRow, *metrics.Table, error) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(8, sp)
	np := 64
	tm := commpat.GTC(np, 1<<20)
	jobs, err := all.Jobs(list, place.Request{
		Cluster: c, NP: np, Traffic: tm, Seed: seed,
		Opts: core.Options{Obs: o},
	})
	if err != nil {
		return nil, nil, err
	}
	maps, err := place.Sweep(context.Background(), jobs, 0)
	if err != nil {
		return nil, nil, err
	}
	model := netsim.NewModel(netsim.NewFatTree(4))
	t := metrics.NewTable("cross-policy sweep (np=64, 8 x nehalem-ep, gtc traffic, fat-tree)",
		"policy", "total (ms)", "inter-node MB", "avg hops", "nodes used")
	rows := make([]jsonPolicyRow, 0, len(jobs))
	for i, m := range maps {
		rep, err := model.Evaluate(c, m, tm)
		if err != nil {
			return nil, nil, err
		}
		name := jobs[i].Policy.Name()
		t.AddRow(name, metrics.F(rep.TotalTime/1000, 3),
			metrics.F(rep.InterBytes/1e6, 1), metrics.F(rep.AvgHops, 2),
			metrics.I(len(m.RanksByNode())))
		rows = append(rows, jsonPolicyRow{
			Policy: name, NP: np, Nodes: c.NumNodes(),
			NodesUsed: len(m.RanksByNode()),
			TotalMs:   rep.TotalTime / 1000,
			InterMB:   rep.InterBytes / 1e6,
			AvgHops:   rep.AvgHops,
		})
	}
	return rows, t, nil
}
