// Command lamaload is lamad's end-to-end benchmark. It builds cmd/lamad,
// starts it on a loopback port with one fixed site
// (-clusters dc=4096xnehalem-ep,part=256xnehalem-ep), drives one of four
// seeded workloads through closed-loop HTTP callers, checks the first 200
// answers against the repository's oracles, and prints every metric by
// name with its unit. The last line of standard output is a JSON summary:
//
//	lamaload -workload repeat-jobs -seed 1 -seconds 20 -trace 0
//
// With -trace 1 it also replays the same seeded stream in-process and
// times each layer (see trace.go); the summary then carries the per-layer
// metrics instead of the end-to-end ones. -summarize folds result files
// into medians and quartiles:
//
//	lamaload -summarize set.json .bench_build/lamaload/*-trace0.json
//
// Run it from the repository root; build outputs and results go to
// .bench_build/lamaload.
package main

import (
	"bufio"
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"lama/internal/cluster"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares: the JSON
// summary carries exactly the first list untraced and the second traced.
// Every one of them is measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"loadgen.requests", "count"},
	{"loadgen.cpu_share", "ratio"},
	{"lamad.cpu_ms_per_req", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.stale_total", "count"},
	{"wire.response_kb_mean", "KB"},
	{"wire.decode_us_p50", "us"},
	{"wire.encode_us_p50", "us"},
	{"engine.place_us_p50", "us"},
	{"engine.place_miss_us_p50", "us"},
	{"policy.map_us_p50", "us"},
	{"policy.map_us_p99", "us"},
	{"cluster.build_ms", "ms"},
	{"trace.residual_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// predictedLargest is each workload's largest layer, written down before
// measuring. A group of leaves counts as one layer.
var predictedLargest = map[string][]string{
	"repeat-jobs":   {"wire.encode"},
	"distinct-jobs": {"core.sweep", "core.place"},
	"churn-dc":      {"core.prune"},
	"traffic-aware": {"place.treematch"},
}

const defaultWarmup = 3 * time.Second

type config struct {
	root    string // repository root: holds go.mod and cmd/lamad
	work    string // build outputs, results and spans
	wl      *workload
	seed    int64
	window  time.Duration
	warmup  time.Duration
	trace   bool
	starts  int // cold starts timed for setup_s
	callers int
}

// header is the machine signature every result carries, so results are
// only compared like for like.
type header struct {
	Tool        string   `json:"tool"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	WindowS     float64  `json:"window_s"`
	WarmupS     float64  `json:"warmup_s"`
	Trace       bool     `json:"trace"`
	Callers     int      `json:"callers"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPUModel    string   `json:"cpu_model"`
	GoVersion   string   `json:"go_version"`
	GitRevision string   `json:"git_revision"`
	LamadFlags  []string `json:"lamad_flags"`
	Started     string   `json:"started"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type layerShare struct {
	Name     string  `json:"name"`
	UsPerReq float64 `json:"us_per_request"`
}

// result is one run, as written to the results file.
type result struct {
	Header    header       `json:"header"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Verified  int          `json:"verified"`
	Failures  []string     `json:"failures,omitempty"`
	Metrics   []metric     `json:"metrics"`
	Layers    []layerShare `json:"layers,omitempty"`
	Largest   string       `json:"largest_layer,omitempty"`
	Predicted string       `json:"predicted_largest_layer,omitempty"`
	// PredictionMet: the predicted leaves together outweigh every other.
	PredictionMet bool `json:"prediction_met,omitempty"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

// addIf adds a metric only when it was measured (v is not NaN): the
// workload-specific layers appear only on the workloads that reach them.
func (r *result) addIf(name string, v float64, unit string) {
	if !math.IsNaN(v) {
		r.add(name, v, unit)
	}
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func main() {
	fs := flag.NewFlagSet("lamaload", flag.ExitOnError)
	wlName := fs.String("workload", "", "workload: repeat-jobs, distinct-jobs, churn-dc or traffic-aware")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured window, seconds")
	trace := fs.Int("trace", 0, "1 adds the in-process traced replay and reports per-layer metrics")
	summarizeTo := fs.String("summarize", "", "write medians and quartiles of the result files given as arguments to this file")
	fs.Parse(os.Args[1:])
	if *summarizeTo != "" {
		if err := summarize(*summarizeTo, fs.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "lamaload:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := workloadByName(*wlName)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamaload:", err)
		os.Exit(2)
	}
	cfg := config{
		root:    ".",
		work:    filepath.Join(".bench_build", "lamaload"),
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		warmup:  defaultWarmup,
		trace:   *trace == 1,
		starts:  5,
		callers: runtime.NumCPU(),
	}
	if cfg.trace {
		cfg.starts = 1
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamaload:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run, prints it and writes its result file.
func run(cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildLamad(cfg.root, filepath.Join(cfg.work, "bin"))
	if err != nil {
		return nil, err
	}
	res := &result{Header: signature(cfg, bin)}
	dc, part, err := site()
	if err != nil {
		return nil, err
	}
	var chain *churnChain
	if cfg.wl.events {
		chain = newChurnChain(cfg.seed, dc)
	}

	var setups []float64
	var d *daemon
	for i := 0; i < cfg.starts; i++ {
		t0 := time.Now()
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		if err := d.probe(); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.starts-1 {
			d.stop()
		}
	}
	window := cfg.window
	if cfg.trace {
		window /= 2 // the in-process replays take the other half
	}
	lr, err := runLoad(d, loadConfig{wl: cfg.wl, seed: cfg.seed, callers: cfg.callers, warmup: cfg.warmup, window: window, chain: chain})
	d.stop()
	if err != nil {
		return nil, err
	}

	served := snapshots{part: part, dc: []*cluster.Snapshot{dc}}
	if chain != nil {
		served.dc = chain.snapshots()
	}
	orc := newOracle(served)
	verified, commMs, mismatches := orc.verifyAll(lr.verify)
	res.Verified = verified
	res.Attempted = lr.sent
	res.Failed = lr.failed + len(mismatches)
	res.Failures = lr.msgs
	for _, e := range mismatches {
		res.Failures = append(res.Failures, "oracle: "+e.Error())
	}

	n := float64(len(lr.latMs))
	delta := func(name string) float64 { return lr.after[name] - lr.before[name] }
	hits, misses := delta("lama_engine_cache_hits_total"), delta("lama_engine_cache_misses_total")
	res.add("setup_s", percentile(setups, 50), "s")
	res.add("p50_ms", percentile(lr.latMs, 50), "ms")
	res.add("p99_ms", percentile(lr.latMs, 99), "ms")
	res.add("throughput_rps", n/lr.windowSecs, "req/s")
	res.add("peak_rss_mb", lr.peakRSSMB, "MB")
	res.add("error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.addIf("event_p50_ms", percentile(lr.eventMs, 50), "ms")
	res.addIf("job_comm_ms", mean(commMs), "ms")
	res.add("oracle.verified", float64(verified), "count")
	res.add("loadgen.requests", n, "count")
	res.add("loadgen.cpu_share", lr.genCPU/(lr.genCPU+lr.lamadCPU), "ratio")
	res.add("lamad.cpu_ms_per_req", lr.lamadCPU*1000/n, "ms")
	res.add("engine.cache_hit_ratio", hits/(hits+misses), "ratio")
	res.add("engine.stale_total", delta("lama_engine_cache_stale_total"), "count")
	res.add("engine.shed_total", delta("lama_engine_shed_total"), "count")
	res.add("wire.response_kb_mean", float64(lr.respBytes)/1024/n, "KB")

	if cfg.trace {
		if err := traced(cfg, chain, mean(lr.latMs)*1000, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && verified > 0
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	summary := map[string]any{}
	for _, def := range declared {
		v, ok := res.value(def.name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.Failures = append(res.Failures, "metric "+def.name+" was not measured")
			v = 0
		}
		summary[def.name] = map[string]any{"value": v, "unit": def.unit}
	}

	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.wl.name, cfg.seed, btoi(cfg.trace))
	if err := writeJSON(filepath.Join(cfg.work, name), res); err != nil {
		return nil, err
	}
	printResult(stdout, res)
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": summary,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// traced runs the in-process replays and adds the per-layer metrics.
// httpMeanUs is the untraced mean latency, the base of the residual.
func traced(cfg config, chain *churnChain, httpMeanUs float64, res *result) error {
	quarter := cfg.window / 4
	off, err := replay(cfg.wl, cfg.seed, chain, cfg.callers, quarter, false)
	if err != nil {
		return err
	}
	runtime.GC() // the first replay's engine cache is garbage now; do not let it tax the second
	on, err := replay(cfg.wl, cfg.seed, chain, cfg.callers, quarter, true)
	if err != nil {
		return err
	}
	for _, r := range []*replayResult{off, on} {
		res.Attempted += r.requests + r.failed
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.msgs...)
	}
	if err := writeSpans(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.wl.name, cfg.seed)), on.spans); err != nil {
		return err
	}

	by := map[string][]float64{}
	for i := range on.spans {
		s := &on.spans[i]
		by[s.Name] = append(by[s.Name], s.us())
		if s.Tag != "" {
			by[s.Name+"."+s.Tag] = append(by[s.Name+"."+s.Tag], s.us())
		}
	}
	ms, err := replayMisses(cfg.wl, cfg.seed, on)
	if err != nil {
		return err
	}
	res.add("wire.decode_us_p50", percentile(by["wire.decode"], 50), "us")
	res.add("wire.encode_us_p50", percentile(by["wire.encode"], 50), "us")
	res.add("engine.place_us_p50", percentile(by["engine.place"], 50), "us")
	res.add("engine.place_miss_us_p50", percentile(by["engine.place.miss"], 50), "us")
	res.add("policy.map_us_p50", percentile(ms.mapUs, 50), "us")
	res.add("policy.map_us_p99", percentile(ms.mapUs, 99), "us")
	res.add("cluster.build_ms", on.buildMs, "ms")
	layers := mean(by["wire.decode"]) + mean(by["engine.place"]) + mean(by["wire.encode"])
	res.add("trace.residual_share", 1-layers/httpMeanUs, "ratio")
	res.add("trace.overhead_share", 1-on.rate/off.rate, "ratio")

	res.addIf("engine.place_hit_us_p50", percentile(by["engine.place.hit"], 50), "us")
	res.addIf("engine.apply_event_us_p50", percentile(by["engine.apply_event"], 50), "us")
	if chain != nil {
		var derive []float64
		for _, s := range chain.steps {
			derive = append(derive, s.deriveUs)
		}
		res.addIf("cluster.derive_us_p50", percentile(derive, 50), "us")
	}
	res.addIf("core.map_us_p50", percentile(ms.coreMapUs, 50), "us")
	if n := len(ms.coreMapUs); n > 0 {
		for _, leaf := range []string{"core.prune", "core.build_shape", "core.sweep", "core.place"} {
			res.add(leaf+"_us_mean", ms.leafUs[leaf]/float64(n), "us")
		}
	}
	res.addIf("core.map_after_swap_us_p50", percentile(ms.afterSwapUs, 50), "us")
	for _, l := range []string{"place.treematch", "place.torus", "place.baseline"} {
		res.addIf(l+"_us_p50", percentile(ms.policyUs[l], 50), "us")
	}
	res.addIf("commpat.gen_us_p50", percentile(ms.genUs, 50), "us")

	res.Layers = attribute(by, ms, on.requests)
	pred := predictedLargest[cfg.wl.name]
	res.Largest = res.Layers[0].Name
	res.Predicted = strings.Join(pred, "+")
	res.PredictionMet = groupIsLargest(res.Layers, pred)
	return nil
}

// attribute splits the mean request's in-process time into leaf layers:
// decode, encode and cache hits straight from the spans, and the miss
// time in the proportions the miss replay measured for its leaves.
// Sorted largest first.
func attribute(by map[string][]float64, ms *missStats, requests int) []layerShare {
	n := float64(max(requests, 1))
	out := []layerShare{
		{"wire.decode", sum(by["wire.decode"]) / n},
		{"wire.encode", sum(by["wire.encode"]) / n},
		{"engine.cache_hit", sum(by["engine.place.hit"]) / n},
	}
	missPerReq := sum(by["engine.place.miss"]) / n
	total := 0.0
	for _, us := range ms.leafUs {
		total += us
	}
	for leaf, us := range ms.leafUs {
		out = append(out, layerShare{leaf, missPerReq * us / total})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].UsPerReq != out[b].UsPerReq {
			return out[a].UsPerReq > out[b].UsPerReq
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// groupIsLargest reports whether the leaves in group, taken together,
// outweigh every other leaf.
func groupIsLargest(layers []layerShare, group []string) bool {
	in, most := 0.0, 0.0
	for _, l := range layers {
		if slices.Contains(group, l.Name) {
			in += l.UsPerReq
		} else {
			most = max(most, l.UsPerReq)
		}
	}
	return in >= most
}

func printResult(w io.Writer, r *result) {
	h := r.Header
	fmt.Fprintf(w, "# %s workload=%s seed=%d window=%gs warmup=%gs trace=%t callers=%d nproc=%d gomaxprocs=%d\n",
		h.Tool, h.Workload, h.Seed, h.WindowS, h.WarmupS, h.Trace, h.Callers, h.NProc, h.GOMAXPROCS)
	fmt.Fprintf(w, "# cpu=%q go=%s rev=%s lamad %s\n", h.CPUModel, h.GoVersion, h.GitRevision, strings.Join(h.LamadFlags, " "))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-28s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "# layer                      us/request (in-process replay)")
		for _, l := range r.Layers {
			fmt.Fprintf(w, "#   %-26s %12.3f\n", l.Name, l.UsPerReq)
		}
		verdict := "matches"
		if !r.PredictionMet {
			verdict = "does NOT match"
		}
		fmt.Fprintf(w, "# largest layer %s; predicted %s: prediction %s\n", r.Largest, r.Predicted, verdict)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d verified=%d correct=%t\n", r.Attempted, r.Failed, r.Verified, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "# failure:", f)
	}
}

// signature records the machine and the build a result came from.
func signature(cfg config, lamadBin string) header {
	h := header{
		Tool:        "lamaload/1",
		Workload:    cfg.wl.name,
		Seed:        cfg.seed,
		WindowS:     cfg.window.Seconds(),
		WarmupS:     cfg.warmup.Seconds(),
		Trace:       cfg.trace,
		Callers:     cfg.callers,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    "unknown",
		GoVersion:   runtime.Version(),
		GitRevision: "unknown",
		LamadFlags:  lamadArgs,
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if info, err := buildinfo.ReadFile(lamadBin); err == nil {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.GitRevision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if h.GitRevision != "unknown" {
			h.GitRevision += dirty
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// summarize folds result files into one document: per workload, trace
// mode and metric, every run's value with their median and quartiles.
func summarize(out string, files []string) error {
	if len(files) == 0 {
		return errors.New("-summarize needs result files as arguments")
	}
	type stat struct {
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
		Q1     float64   `json:"q1"`
		Median float64   `json:"median"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"iqr_over_median"`
	}
	type group struct {
		Runs      []header         `json:"runs"`
		Correct   int              `json:"correct_runs"`
		Metrics   map[string]*stat `json:"metrics"`
		Largest   []string         `json:"largest_layers,omitempty"`
		Predicted string           `json:"predicted_largest_layer,omitempty"`
	}
	groups := map[string]*group{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r result
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s/trace%d", r.Header.Workload, btoi(r.Header.Trace))
		g := groups[key]
		if g == nil {
			g = &group{Metrics: map[string]*stat{}}
			groups[key] = g
		}
		g.Runs = append(g.Runs, r.Header)
		if r.Correct {
			g.Correct++
		}
		if r.Largest != "" {
			g.Largest = append(g.Largest, r.Largest)
			g.Predicted = r.Predicted
		}
		for _, m := range r.Metrics {
			s := g.Metrics[m.Name]
			if s == nil {
				s = &stat{Unit: m.Unit}
				g.Metrics[m.Name] = s
			}
			s.Values = append(s.Values, m.Value)
		}
	}
	for _, g := range groups {
		for _, s := range g.Metrics {
			if len(s.Values) < 2 {
				s.Median = s.Values[0]
				s.Q1, s.Q3 = s.Median, s.Median
				continue
			}
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			if s.Median != 0 {
				s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
			}
		}
	}
	return writeJSON(out, groups)
}
