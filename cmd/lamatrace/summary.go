package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lama/internal/metrics"
	"lama/internal/obs"
)

// runSummary renders one artifact for humans: event counts cross-checked
// against the observability vocabulary for traces, and the per-phase
// latency breakdown plus metrics for run reports.
func runSummary(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamatrace summary", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summary: want exactly one file, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	if isTrace(path) {
		return summarizeTrace(out, path)
	}
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	return summarizeReport(out, rep)
}

// jTransition is one extracted objective change: a netsim ordering or
// refinement pass's J before/after.
type jTransition struct {
	key           string
	before, after float64
}

// summarizeTrace scans a JSONL trace once: events counted by (src, event)
// and checked against the canonical vocabulary (vocab.go), and the
// J-objective transitions the netsim events carry extracted into a
// before/after table. Keys outside src and event, such as the "step" of
// older traces, are ignored unless they carry a transition.
func summarizeTrace(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type key struct{ src, event string }
	counts := map[key]int{}
	var transitions []jTransition
	total := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			return fmt.Errorf("%s: line %d does not parse: %v", path, total+1, err)
		}
		src, _ := raw["src"].(string)
		event, _ := raw["event"].(string)
		if src == "" || event == "" {
			return fmt.Errorf("%s: line %d missing src/event", path, total+1)
		}
		counts[key{src, event}]++
		total++
		name := src + "/" + event
		if before, after, ok := numPair(raw, "j_before", "j_after"); ok {
			transitions = append(transitions, jTransition{name, before, after})
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].event < keys[j].event
	})
	t := metrics.NewTable(fmt.Sprintf("%s: %d events", path, total),
		"source", "event", "count", "vocab")
	unknown := 0
	for _, k := range keys {
		v := "ok"
		if !obs.VocabRegistered(k.src, k.event) {
			v = "UNREGISTERED"
			unknown++
		}
		t.AddRow(k.src, k.event, metrics.I(counts[k]), v)
	}
	fmt.Fprintln(out, t.String())

	if len(transitions) > 0 {
		jt := metrics.NewTable("objective transitions", "event", "before", "after", "change")
		for _, tr := range transitions {
			jt.AddRow(tr.key, metrics.F(tr.before, 3), metrics.F(tr.after, 3), pctChange(tr.before, tr.after))
		}
		fmt.Fprintln(out, jt.String())
	}
	if unknown > 0 {
		return fmt.Errorf("%s: %d (source, event) pair(s) not in the observability vocabulary", path, unknown)
	}
	return nil
}

// summarizeReport renders a runreport/v1: phase totals with wall-time
// shares, the metrics snapshot, and each series' first/last samples.
func summarizeReport(out io.Writer, rep *obs.RunReport) error {
	fmt.Fprintf(out, "%s from %s: %d phase spans, %d recovery entries\n\n",
		rep.Schema, rep.Tool, len(rep.Phases), len(rep.Recovery))

	if len(rep.PhaseTotalsUs) > 0 {
		names := sortedNames(rep.PhaseTotalsUs)
		sort.Slice(names, func(i, j int) bool {
			return rep.PhaseTotalsUs[names[i]] > rep.PhaseTotalsUs[names[j]]
		})
		sum := 0.0
		for _, n := range names {
			sum += rep.PhaseTotalsUs[n]
		}
		t := metrics.NewTable("phase latency breakdown", "phase", "total (us)", "share", "vocab")
		for _, n := range names {
			v := "ok"
			if !obs.SpanRegistered(n) {
				v = "stage" // pipeline stages span under their own name
			}
			t.AddRow(n, metrics.F(rep.PhaseTotalsUs[n], 1),
				metrics.F(rep.PhaseTotalsUs[n]/sum*100, 1)+"%", v)
		}
		fmt.Fprintln(out, t.String())
	}

	if m := rep.Metrics; m != nil {
		if len(m.Counters) > 0 {
			t := metrics.NewTable("counters", "name", "value")
			for _, n := range sortedNames(m.Counters) {
				t.AddRow(n, fmt.Sprintf("%d", m.Counters[n]))
			}
			fmt.Fprintln(out, t.String())
		}
		if len(m.Histograms) > 0 {
			t := metrics.NewTable("histograms", "name", "count", "mean")
			for _, n := range sortedNames(m.Histograms) {
				h := m.Histograms[n]
				mean := 0.0
				if h.Count > 0 {
					mean = h.Sum / float64(h.Count)
				}
				t.AddRow(n, fmt.Sprintf("%d", h.Count), metrics.F(mean, 2))
			}
			fmt.Fprintln(out, t.String())
		}
	}

	if len(rep.Series) > 0 {
		t := metrics.NewTable("series", "name", "samples", "first", "last")
		for _, n := range sortedNames(rep.Series) {
			pts := rep.Series[n]
			if len(pts) == 0 {
				t.AddRow(n, "0", "-", "-")
				continue
			}
			t.AddRow(n, metrics.I(len(pts)),
				metrics.F(pts[0].Value, 3), metrics.F(pts[len(pts)-1].Value, 3))
		}
		fmt.Fprintln(out, t.String())
	}
	return nil
}

// numPair extracts two float fields when both are present.
func numPair(raw map[string]any, a, b string) (float64, float64, bool) {
	av, aok := raw[a].(float64)
	bv, bok := raw[b].(float64)
	return av, bv, aok && bok
}

// pctChange renders the relative change from before to after ("-" when
// before is zero).
func pctChange(before, after float64) string {
	if before == 0 {
		return "-"
	}
	return metrics.F((after-before)/before*100, 1) + "%"
}

// sortedNames returns a map's keys sorted.
func sortedNames[M ~map[string]V, V any](m M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
