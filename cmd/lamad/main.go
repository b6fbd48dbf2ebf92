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
// The daemon serves through the obs.Server every CLI's -listen uses, so
// /metrics, /metrics.json, /events, and /debug/pprof come on the
// placement port, and SIGTERM drains in-flight replies before exit 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lama/internal/cluster"
	"lama/internal/engine"
	"lama/internal/obs"

	_ "lama/internal/place/all"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "lamad:", err)
		os.Exit(1)
	}
}

// run serves until stop fires or serving fails, then stops the server
// through obs.Server.Close: in-flight requests finish their replies, and
// run returns nil unless serving failed or the drain ran out of time.
func run(args []string, out io.Writer, stop <-chan os.Signal) error {
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

	eng, srv, err := buildDaemon(*clusters, engine.Config{
		Workers: *workers, QueueDepth: *queue, CacheBytes: *cacheMB << 20,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start(*listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lamad: serving placements on http://%s\n", addr)
	for _, name := range eng.Clusters() {
		s := eng.Snapshot(name)
		fmt.Fprintf(out, "lamad: cluster %s: %d nodes, epoch %d, sig %s\n",
			name, s.Clu.NumNodes(), s.Clu.Epoch(), s.Clu.Sig())
	}
	select {
	case <-stop:
	case <-srv.Done():
	}
	return srv.Close()
}

// buildDaemon assembles the daemon's engine and its server: the live
// telemetry plane every -listen serves, with the GC gauges added, and
// the engine's /v1 API mounted on the same routing table (the engine's
// counters, the event ring and the pprof endpoints all share the
// placement port).
func buildDaemon(clusters string, cfg engine.Config) (*engine.Engine, *obs.Server, error) {
	srv := obs.NewLiveServer("lamad")
	obs.RegisterGCGauges(srv.Registry)
	cfg.Obs = &obs.Observer{Metrics: srv.Registry, Sink: srv.Ring}
	eng := engine.New(cfg)
	if err := registerClusters(eng, clusters); err != nil {
		return nil, nil, err
	}
	eng.Mount(srv.Handler())
	return eng, srv, nil
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
		n, sp, err := cluster.ParseNodesSpec(spec, "cluster")
		if err != nil {
			return fmt.Errorf("cluster %q: %v", name, err)
		}
		if err := eng.Register(name, &engine.Snapshot{Clu: cluster.HomogeneousSnapshot(n, sp)}); err != nil {
			return err
		}
	}
	if len(eng.Clusters()) == 0 {
		return fmt.Errorf("no clusters defined")
	}
	return nil
}
