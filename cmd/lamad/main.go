// Command lamad is the placement daemon: the paper's mapping algorithm
// served as a long-running service instead of a per-job library call.
// It registers one or more clusters as immutable snapshots, mounts the
// placement engine's /v1 API next to the shared telemetry surface, and
// serves both from a single port:
//
//	lamad -listen :8080 -clusters prod=256xnehalem-ep,dev=4xfig2
//
//	curl -s localhost:8080/v1/clusters
//	curl -s -X POST localhost:8080/v1/place \
//	     -d '{"cluster":"prod","np":4096,"layout":"csbnh"}'
//	curl -s -X POST localhost:8080/v1/clusters/prod/events \
//	     -d '{"type":"fail-node","node":17}'
//
// Placements are cached per published snapshot, in a cache
// bounded by the bytes it holds. A LAMA or baseline run serves every
// smaller np on the same cluster, layout and options from its first
// ranks, written from placements bytes encoded once. A mutation event swaps the
// cluster's snapshot copy-on-write (in-flight requests keep the one they
// started with) and purges only that cluster's stale cache entries.
// /metrics, /metrics.json, /events, and /debug/pprof come from the same
// obs.Server every CLI shares, so the daemon is scrapeable and
// profileable out of the box.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"lama/internal/cluster"
	"lama/internal/engine"
	"lama/internal/hw"
	"lama/internal/obs"

	_ "lama/internal/place/all"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamad:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamad", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "host:port the daemon binds (port 0 picks a free one)")
	clusters := fs.String("clusters", "default=4xnehalem-ep", "comma-separated name=<nodes>x<spec> cluster definitions")
	workers := fs.Int("workers", 0, "placement worker pool size (0 = 4)")
	queue := fs.Int("queue", 0, "admission queue depth before requests are shed (0 = 4x workers)")
	cacheMB := fs.Int64("cache-mb", 0, "placement cache budget in MiB (maps and encoded placements), -1 disables (0 = 256)")
	version := obs.RegisterVersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		obs.PrintVersion(out, "lamad")
		return nil
	}

	eng, handler, err := buildDaemon(*clusters, engine.Config{
		Workers: *workers, QueueDepth: *queue, CacheBytes: *cacheMB << 20,
	})
	if err != nil {
		return err
	}

	srv, err := newHTTPServer(*listen, handler)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lamad: serving placements on http://%s\n", srv.addr)
	for _, name := range eng.Clusters() {
		s := eng.Snapshot(name)
		fmt.Fprintf(out, "lamad: cluster %s: %d nodes, epoch %d, sig %s\n",
			name, s.Clu.NumNodes(), s.Clu.Epoch(), s.Clu.Sig())
	}
	return srv.serve()
}

// buildDaemon assembles the daemon's engine and HTTP surface: the
// placement /v1 API mounted next to the always-on telemetry plane (the
// engine's counters, the GC gauges, the event ring, and the pprof
// endpoints all share the placement port).
func buildDaemon(clusters string, cfg engine.Config) (*engine.Engine, http.Handler, error) {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	obs.RegisterGCGauges(reg)
	ring := obs.NewRingSink(obs.DefaultRingCapacity)
	ring.DropCounter = reg.Counter("lama_obs_events_dropped_total")
	o := &obs.Observer{Metrics: reg, Sink: ring, Phases: obs.NewPhaseTimer()}
	o.Phases.EnablePprofLabels()

	cfg.Obs = o
	eng := engine.New(cfg)
	if err := registerClusters(eng, clusters); err != nil {
		return nil, nil, err
	}

	telemetry := obs.NewServer(reg, ring)
	telemetry.Tool = "lamad"
	mux := http.NewServeMux()
	eng.Mount(mux)
	mux.Handle("/", telemetry.Handler())
	return eng, mux, nil
}

// errDuplicateCluster rejects a -clusters list that defines one name
// twice; registering both would silently keep only the last.
var errDuplicateCluster = errors.New("cluster defined twice in -clusters")

// registerClusters parses "name=<nodes>x<spec>,..." and publishes each as
// a snapshot.
func registerClusters(eng *engine.Engine, defs string) error {
	seen := map[string]bool{}
	for _, def := range strings.Split(defs, ",") {
		def = strings.TrimSpace(def)
		if def == "" {
			continue
		}
		name, spec, ok := strings.Cut(def, "=")
		if !ok {
			return fmt.Errorf("bad -clusters entry %q: want name=<nodes>x<spec>", def)
		}
		if seen[name] {
			return fmt.Errorf("%w: %q", errDuplicateCluster, name)
		}
		seen[name] = true
		snap, err := buildCluster(spec)
		if err != nil {
			return fmt.Errorf("cluster %q: %v", name, err)
		}
		if err := eng.Register(name, &engine.Snapshot{Clu: snap}); err != nil {
			return err
		}
	}
	if len(eng.Clusters()) == 0 {
		return fmt.Errorf("no clusters defined")
	}
	return nil
}

// buildCluster parses "<nodes>x<spec>" exactly like lamamap's -cluster,
// into a snapshot whose nodes share one topology.
func buildCluster(spec string) (*cluster.Snapshot, error) {
	nStr, specStr, ok := strings.Cut(spec, "x")
	if !ok {
		return nil, fmt.Errorf("bad cluster %q: want <nodes>x<spec>", spec)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("bad node count in %q", spec)
	}
	sp, err := hw.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	return cluster.HomogeneousSnapshot(n, sp), nil
}
