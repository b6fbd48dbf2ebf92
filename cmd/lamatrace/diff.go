package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"lama/internal/metrics"
	"lama/internal/obs"
)

// runDiff compares two run reports and fails (nonzero exit) when the new
// run regressed: phase totals or histogram means up past -threshold
// percent, or a stall/dropped counter grown at all.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lamatrace diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 25, "regression threshold in percent")
	minUs := fs.Float64("min-us", 100, "ignore phases/histograms whose baseline is below this many microseconds (scheduler jitter floor)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want OLD NEW, got %d file(s)", fs.NArg())
	}
	if isTrace(fs.Arg(0)) || isTrace(fs.Arg(1)) {
		return fmt.Errorf("diff: compares reports, not traces (run summary on %s instead)", fs.Arg(0))
	}
	oldR, err := loadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	newR, err := loadReport(fs.Arg(1))
	if err != nil {
		return err
	}
	regressions := diffReports(out, oldR, newR, *threshold, *minUs)
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) past %.0f%%:\n  %s",
			len(regressions), *threshold, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "no regressions past %.0f%%\n", *threshold)
	return nil
}

// deltaRow formats one compared quantity, where higher is worse, and
// classifies it; a floor of 0 disables the jitter filter.
func deltaRow(t *metrics.Table, regressions *[]string, name string,
	oldV, newV, threshold, floor float64) {
	verdict := "ok"
	switch {
	case oldV == 0 && newV == 0:
		verdict = "-"
	case oldV == 0:
		verdict = "new"
	default:
		change := (newV - oldV) / oldV * 100
		if change > threshold && (floor <= 0 || oldV >= floor || newV >= floor) {
			verdict = "REGRESSED"
			*regressions = append(*regressions,
				fmt.Sprintf("%s: %.3g -> %.3g (%+.1f%%)", name, oldV, newV, change))
		}
	}
	t.AddRow(name, metrics.F(oldV, 2), metrics.F(newV, 2), pctChange(oldV, newV), verdict)
}

// diffReports compares two runreport/v1 documents: phase totals and
// histogram means regress when slower past the threshold; stall/dropped
// counters regress when they grew at all.
func diffReports(out io.Writer, oldR, newR *obs.RunReport, threshold, minUs float64) []string {
	var regressions []string

	t := metrics.NewTable(fmt.Sprintf("phase totals, %s vs %s (us)", oldR.Tool, newR.Tool),
		"phase", "old", "new", "change", "verdict")
	for _, name := range unionNames(oldR.PhaseTotalsUs, newR.PhaseTotalsUs) {
		deltaRow(t, &regressions, "phase "+name,
			oldR.PhaseTotalsUs[name], newR.PhaseTotalsUs[name], threshold, minUs)
	}
	fmt.Fprintln(out, t.String())

	oldM, newM := oldR.Metrics, newR.Metrics
	if oldM == nil {
		oldM = &obs.MetricsSnapshot{}
	}
	if newM == nil {
		newM = &obs.MetricsSnapshot{}
	}
	if len(oldM.Histograms)+len(newM.Histograms) > 0 {
		t := metrics.NewTable("histogram means", "name", "old", "new", "change", "verdict")
		for _, name := range unionNames(oldM.Histograms, newM.Histograms) {
			deltaRow(t, &regressions, "histogram "+name,
				histMean(oldM.Histograms[name]), histMean(newM.Histograms[name]),
				threshold, minUs)
		}
		fmt.Fprintln(out, t.String())
	}

	// Health counters: any growth in stalls or drops is a finding on its
	// own, independent of the latency threshold.
	for _, name := range unionNames(oldM.Counters, newM.Counters) {
		if !strings.Contains(name, "stall") && !strings.Contains(name, "dropped") {
			continue
		}
		if newM.Counters[name] > oldM.Counters[name] {
			regressions = append(regressions, fmt.Sprintf("counter %s: %d -> %d",
				name, oldM.Counters[name], newM.Counters[name]))
		}
	}
	return regressions
}

// histMean is a histogram snapshot's mean observation (0 when empty).
func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// unionNames merges two maps' keys, sorted.
func unionNames[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for n := range a {
		set[n] = true
	}
	for n := range b {
		set[n] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
