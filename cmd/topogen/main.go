// Command topogen generates synthetic cluster descriptions: hostfiles for
// lamamap and JSON topology dumps for inspection. It stands in for the
// hwloc discovery step of the paper's toolchain.
//
// Usage:
//
//	topogen -nodes 4 -spec nehalem-ep                 # homogeneous hostfile
//	topogen -specs nehalem-ep,bgp-node,power7         # heterogeneous
//	topogen -nodes 2 -spec fig2 -offline 1:socket:1   # restriction demo
//	topogen -spec magny-cours -json                   # one node as JSON
//	topogen -presets                                  # list presets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lama/internal/cluster"
	"lama/internal/hw"
	"lama/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	nodes := fs.Int("nodes", 1, "number of identical nodes")
	spec := fs.String("spec", "nehalem-ep", "node spec (preset or colon form)")
	synthetic := fs.String("synthetic", "", "hwloc-style synthetic spec, e.g. \"socket:2 core:4 pu:2\" (overrides -spec)")
	specs := fs.String("specs", "", "comma-separated specs for a heterogeneous cluster")
	slots := fs.Int("slots", 0, "slots per node (0 = cores)")
	offline := fs.String("offline", "", "comma-separated node:level:index restrictions")
	asJSON := fs.Bool("json", false, "emit the first node's topology as JSON")
	asTree := fs.Bool("tree", false, "render the first node's topology as an ASCII tree")
	presets := fs.Bool("presets", false, "list available presets and exit")
	obsFlags := obs.RegisterFlags(fs)
	version := obs.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(out, "topogen")
		return nil
	}
	o, closeObs, err := obsFlags.Observer(os.Stderr)
	if err != nil {
		return err
	}

	if *presets {
		for _, name := range hw.PresetNames() {
			sp, _ := hw.Preset(name)
			fmt.Fprintf(out, "%-12s %s (%d PUs)\n", name, sp, sp.TotalPUs())
		}
		return closeObs()
	}

	endGen := o.StartSpan(obs.SpanGenerate)
	var c *cluster.Cluster
	if *specs != "" {
		var list []hw.Spec
		for _, s := range strings.Split(*specs, ",") {
			sp, err := hw.ParseSpec(s)
			if err != nil {
				return err
			}
			list = append(list, sp)
		}
		c = cluster.FromSpecs(list...)
	} else {
		var sp hw.Spec
		var err error
		if *synthetic != "" {
			sp, err = hw.ParseSynthetic(*synthetic)
		} else {
			sp, err = hw.ParseSpec(*spec)
		}
		if err != nil {
			return err
		}
		c = cluster.Homogeneous(*nodes, sp)
	}
	for _, n := range c.Nodes {
		n.Slots = *slots
	}

	if *offline != "" {
		for _, item := range strings.Split(*offline, ",") {
			parts := strings.Split(item, ":")
			if len(parts) != 3 {
				return fmt.Errorf("bad -offline item %q: want node:level:index", item)
			}
			ni, err1 := strconv.Atoi(parts[0])
			level, ok := hw.LevelByName(parts[1])
			idx, err2 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil || !ok {
				return fmt.Errorf("bad -offline item %q", item)
			}
			node := c.Node(ni)
			if node == nil {
				return fmt.Errorf("-offline: no node %d", ni)
			}
			if !node.Topo.SetAvailable(level, idx, false) {
				return fmt.Errorf("-offline: no %s %d on node %d", level, idx, ni)
			}
		}
	}

	endGen()
	if reg := o.Reg(); reg != nil {
		reg.Gauge("lama_topogen_nodes").Set(float64(c.NumNodes()))
		reg.Gauge("lama_topogen_usable_pus").Set(float64(c.TotalUsablePUs()))
	}
	if o.Enabled() {
		o.Emit(obs.SrcTopogen, obs.EvGenerate,
			obs.F("nodes", c.NumNodes()), obs.F("usable_pus", c.TotalUsablePUs()))
	}
	finishObs := func() error {
		if err := closeObs(); err != nil {
			return err
		}
		return obsFlags.WriteReport(o.Report("topogen", map[string]any{
			"nodes": c.NumNodes(), "spec": *spec, "specs": *specs,
			"offline": *offline, "slots": *slots,
		}))
	}

	if *asJSON {
		data, err := json.MarshalIndent(c.Node(0).Topo, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return finishObs()
	}
	if *asTree {
		fmt.Fprint(out, c.Node(0).Topo.RenderTree())
		return finishObs()
	}
	fmt.Fprint(out, cluster.FormatHostfile(c))
	return finishObs()
}
