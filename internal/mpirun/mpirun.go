// Package mpirun implements the four command-line abstraction levels the
// paper's Open MPI implementation exposes (§V):
//
//	Level 1: no mapping/binding options — sensible defaults.
//	Level 2: simple, common patterns (--bynode, --byslot, --map-by socket, ...).
//	Level 3: raw LAMA process layouts (--lama-map scbnh).
//	Level 4: irregular patterns via a rankfile (--rankfile file).
//
// Levels 1 and 2 are shortcuts that lower onto Level 3 layouts, exactly as
// in the paper; Level 4 bypasses the LAMA.
package mpirun

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"lama/internal/bind"
	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/place"
	_ "lama/internal/place/all" // link every built-in policy for --policy
	"lama/internal/rankfile"
)

// Shortcut layouts: the Level 2 vocabulary and the Level 3 layout each
// pattern lowers to.
var shortcuts = map[string]string{
	"slot":     "csbnh", // pack cores within a node, then next node
	"core":     "csbnh",
	"node":     "ncsbh", // round-robin nodes
	"socket":   "scbnh", // scatter across sockets (the paper's example)
	"board":    "bscnh", // scatter across boards
	"numa":     "Ncsbnh",
	"hwthread": "hcsbn", // pack hardware threads
	"l2":       "L2csbnh",
	"l3":       "L3csbnh",
}

// ShortcutLayout returns the Level 3 layout string a Level 2 pattern name
// lowers to.
func ShortcutLayout(name string) (string, bool) {
	l, ok := shortcuts[name]
	return l, ok
}

// ShortcutNames returns the supported Level 2 pattern names.
func ShortcutNames() []string {
	out := make([]string, 0, len(shortcuts))
	for n := range shortcuts {
		out = append(out, n)
	}
	return out
}

// Request is a fully parsed launch request.
type Request struct {
	// NP is the number of processes to launch.
	NP int
	// Level is the abstraction level used (1-4).
	Level int
	// Layout is the process layout (Levels 1-3).
	Layout core.Layout
	// Rankfile is the parsed rankfile (Level 4), nil otherwise.
	Rankfile *rankfile.File
	// Opts are the mapping options.
	Opts core.Options
	// BindPolicy and BindLevel describe the requested binding. BindCount
	// (from --lama-bind "<count><level>") widens a Specific binding to
	// several consecutive objects; 0/1 means one.
	BindPolicy bind.Policy
	BindLevel  hw.Level
	BindCount  int
	// ReportBindings requests an Open MPI-style binding report
	// (--report-bindings).
	ReportBindings bool
	// Policy optionally names the registered placement policy (--policy).
	// Empty derives it from the abstraction level: "rankfile" for Level 4,
	// "lama" otherwise.
	Policy string
	// Traffic is the application communication matrix, consumed by
	// traffic-aware policies ("treematch") and the netorder stages. Set
	// programmatically (CLIs lower their -pattern/-traffic flags onto it).
	Traffic *commpat.Matrix
	// Seed, TorusDims, TorusOrder, BlockSize, and PackLevel feed the
	// corresponding registry policies; see place.Request.
	Seed       int64
	TorusDims  [3]int
	TorusOrder string
	BlockSize  int
	PackLevel  hw.Level
	// Stages are post-pass pipeline stages applied between place and bind
	// (e.g. netorder.Stage and netorder.Refine). Set programmatically.
	Stages []place.Stage
}

// Parse interprets an mpirun-style argument list:
//
//	-np N                 process count (required)
//	--bynode | --byslot   Level 2 shortcuts
//	--map-by <pattern>    Level 2 shortcut by name (socket, core, numa, ...)
//	--lama-map <layout>   Level 3 raw LAMA layout
//	--rankfile-text <s>   Level 4 irregular placements (inline text)
//	--bind-to <level>     none | board | socket | numa | l1|l2|l3 | core | hwthread
//	--bind-limited        limited-set binding
//	--pe N                processing elements per process
//	--oversubscribe       allow PU sharing
//	--max-per <level>=<n> ALPS-style per-resource rank cap
//
// Value-taking flags also accept the --flag=value form.
func Parse(args []string) (*Request, error) {
	req := &Request{Level: 1, BindPolicy: bind.None, BindLevel: hw.LevelCore}
	var mapSpec string
	mapLevel := 1

	// Expand "--flag=value" into "--flag value" so both spellings work.
	expanded := make([]string, 0, len(args))
	for _, a := range args {
		if strings.HasPrefix(a, "--") {
			if flag, v, ok := strings.Cut(a, "="); ok {
				expanded = append(expanded, flag, v)
				continue
			}
		}
		expanded = append(expanded, a)
	}
	args = expanded

	next := func(i *int, flag string) (string, error) {
		*i++
		if *i >= len(args) {
			return "", fmt.Errorf("mpirun: %s requires a value", flag)
		}
		return args[*i], nil
	}
	setMap := func(level int, spec string) error {
		if mapLevel > 1 {
			return fmt.Errorf("mpirun: conflicting mapping options")
		}
		mapLevel = level
		mapSpec = spec
		return nil
	}

	for i := 0; i < len(args); i++ {
		switch arg := args[i]; arg {
		case "-np", "--np", "-n":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			np, err := strconv.Atoi(v)
			if err != nil || np <= 0 {
				return nil, fmt.Errorf("mpirun: bad process count %q", v)
			}
			req.NP = np
		case "--bynode":
			if err := setMap(2, shortcuts["node"]); err != nil {
				return nil, err
			}
		case "--byslot":
			if err := setMap(2, shortcuts["slot"]); err != nil {
				return nil, err
			}
		case "--map-by":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			layout, ok := shortcuts[v]
			if !ok {
				return nil, fmt.Errorf("mpirun: unknown --map-by pattern %q (want one of %s)",
					v, strings.Join(ShortcutNames(), ", "))
			}
			if err := setMap(2, layout); err != nil {
				return nil, err
			}
		case "--lama-map":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			if err := setMap(3, v); err != nil {
				return nil, err
			}
		case "--rankfile-text":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			if err := setMap(4, ""); err != nil {
				return nil, err
			}
			f, err := rankfile.Parse(v)
			if err != nil {
				return nil, err
			}
			req.Rankfile = f
		case "--bind-to":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			if v == "none" {
				req.BindPolicy = bind.None
				continue
			}
			level, ok := bindLevel(v)
			if !ok {
				return nil, fmt.Errorf("mpirun: unknown --bind-to target %q", v)
			}
			req.BindPolicy = bind.Specific
			req.BindLevel = level
		case "--lama-bind":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			level, count, err := bind.ParseWidthSpec(v)
			if err != nil {
				return nil, err
			}
			req.BindPolicy = bind.Specific
			req.BindLevel = level
			req.BindCount = count
		case "--policy":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			req.Policy = v
		case "--bind-limited":
			req.BindPolicy = bind.Limited
		case "--report-bindings":
			req.ReportBindings = true
		case "--pe":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			pe, err := strconv.Atoi(v)
			if err != nil || pe <= 0 {
				return nil, fmt.Errorf("mpirun: bad --pe %q", v)
			}
			req.Opts.PEsPerProc = pe
		case "--oversubscribe":
			req.Opts.Oversubscribe = true
		case "--respect-slots":
			req.Opts.RespectSlots = true
		case "--max-per":
			v, err := next(&i, arg)
			if err != nil {
				return nil, err
			}
			name, cnt, ok := strings.Cut(v, "=")
			if !ok {
				return nil, fmt.Errorf("mpirun: --max-per wants <level>=<n>, got %q", v)
			}
			level, ok := bindLevel(name)
			if !ok {
				if name == "node" {
					level = hw.LevelMachine
					ok = true
				}
			}
			if !ok {
				return nil, fmt.Errorf("mpirun: unknown --max-per level %q", name)
			}
			n, err := strconv.Atoi(cnt)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("mpirun: bad --max-per count %q", cnt)
			}
			if req.Opts.MaxPerResource == nil {
				req.Opts.MaxPerResource = map[hw.Level]int{}
			}
			req.Opts.MaxPerResource[level] = n
		default:
			return nil, fmt.Errorf("mpirun: unknown option %q", arg)
		}
	}
	if req.NP <= 0 {
		return nil, fmt.Errorf("mpirun: -np is required")
	}
	req.Level = mapLevel
	if mapLevel != 4 {
		if mapLevel == 1 {
			mapSpec = shortcuts["slot"] // Level 1 default: by-slot
		}
		layout, err := core.ParseLayout(mapSpec)
		if err != nil {
			return nil, err
		}
		req.Layout = layout
	}
	return req, nil
}

// bindLevel maps a --bind-to target name to a Level.
func bindLevel(name string) (hw.Level, bool) {
	switch name {
	case "board":
		return hw.LevelBoard, true
	case "socket":
		return hw.LevelSocket, true
	case "numa":
		return hw.LevelNUMA, true
	case "l1":
		return hw.LevelL1, true
	case "l2":
		return hw.LevelL2, true
	case "l3":
		return hw.LevelL3, true
	case "core":
		return hw.LevelCore, true
	case "hwthread":
		return hw.LevelPU, true
	default:
		return 0, false
	}
}

// Result is a fully planned launch: map plus binding plan.
type Result struct {
	Map  *core.Map
	Plan *bind.Plan
}

// PolicyName resolves the placement policy the request uses: an explicit
// --policy wins, otherwise Level 4 lowers onto "rankfile" and every other
// level onto "lama".
func (req *Request) PolicyName() string {
	if req.Policy != "" {
		return req.Policy
	}
	if req.Level == 4 {
		return "rankfile"
	}
	return "lama"
}

// placeRequest lowers the mpirun request onto the registry's request type.
func placeRequest(req *Request, c *cluster.Cluster) *place.Request {
	preq := &place.Request{
		Cluster:    c,
		NP:         req.NP,
		Layout:     req.Layout,
		Traffic:    req.Traffic,
		TorusDims:  req.TorusDims,
		TorusOrder: req.TorusOrder,
		Seed:       req.Seed,
		BlockSize:  req.BlockSize,
		PackLevel:  req.PackLevel,
		Opts:       req.Opts,
	}
	if req.Rankfile != nil {
		preq.RankfileText = rankfile.Format(req.Rankfile)
	}
	return preq
}

// Execute plans the request against a cluster as a uniform pipeline —
// resolve the policy, place, run the post-pass stages, bind — so every
// abstraction level (including the Level-4 rankfile path) flows through
// the same instrumented stages.
func Execute(ctx context.Context, req *Request, c *cluster.Cluster) (*Result, error) {
	name := req.PolicyName()
	pol, ok := place.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("mpirun: unknown placement policy %q", name)
	}
	pipe := place.Pipeline{Policy: pol, Stages: req.Stages}
	m, err := pipe.Run(ctx, placeRequest(req, c))
	if err != nil {
		return nil, err
	}
	var plan *bind.Plan
	endBind := req.Opts.Obs.StartSpan(obs.SpanBind)
	if req.BindPolicy == bind.Specific && req.BindCount > 1 {
		plan, err = bind.ComputeWidth(c, m, req.BindLevel, req.BindCount)
	} else {
		plan, err = bind.Compute(c, m, req.BindPolicy, req.BindLevel)
	}
	endBind()
	if err != nil {
		return nil, err
	}
	if err := plan.Check(c); err != nil {
		return nil, err
	}
	return &Result{Map: m, Plan: plan}, nil
}
