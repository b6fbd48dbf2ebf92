// Command lamatrace analyses the observability artifacts the other CLIs
// record: JSONL event traces (-trace-out) and runreport/v1 documents
// (-metrics-out). It is the offline half of the telemetry plane — the
// -listen server shows a run live, lamatrace answers questions about runs
// already on disk.
//
// Usage:
//
//	lamatrace summary trace.jsonl        # event counts, vocabulary check, J extraction
//	lamatrace summary report.json        # phase breakdown, metrics, series
//	lamatrace diff old.json new.json     # regression gate: nonzero exit on slowdowns
//	lamatrace validate a.jsonl b.json    # structural validation
//
// diff compares two runreport/v1 documents and exits nonzero when the new
// run regressed past -threshold percent.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lama/internal/obs"
)

const usage = `usage: lamatrace <command> [flags] <file>...

commands:
  summary   per-phase latency breakdown, event counts cross-checked
            against the observability vocabulary, and J-objective
            before/after extraction from one artifact
  diff      compare two runreport/v1 documents; nonzero exit when the
            new run regressed past -threshold
  validate  structurally validate traces and reports

artifacts: .jsonl files are JSONL event traces; other files are
runreport/v1 documents.`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lamatrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("no command\n%s", usage)
	}
	switch args[0] {
	case "summary":
		return runSummary(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "validate":
		return runValidateCmd(args[1:], out)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(out, usage)
		return nil
	case "version", "-version", "--version":
		obs.PrintVersion(out, "lamatrace")
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage)
	}
}

// isTrace reports whether path names a JSONL event trace; every other
// artifact is a runreport/v1 document.
func isTrace(path string) bool { return strings.HasSuffix(path, ".jsonl") }

// loadReport reads and structurally validates one runreport/v1 document.
func loadReport(path string) (*obs.RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := obs.ValidateRunReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// runValidateCmd structurally validates each artifact and prints a one-line
// verdict per file: a trace's events by source, a report's phase, metric
// and recovery counts. The first malformed file fails the run.
func runValidateCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("validate: no files given")
	}
	for _, path := range args {
		if !isTrace(path) {
			rep, err := loadReport(path)
			if err != nil {
				return err
			}
			nm := 0
			if rep.Metrics != nil {
				nm = len(rep.Metrics.Counters) + len(rep.Metrics.Gauges) + len(rep.Metrics.Histograms)
			}
			fmt.Fprintf(out, "%s: ok, %s from %s (%d phases, %d metrics, %d recovery entries)\n",
				path, rep.Schema, rep.Tool, len(rep.Phases), nm, len(rep.Recovery))
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, bySource, err := obs.ValidateJSONLTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		parts := make([]string, 0, len(bySource))
		for _, src := range sortedNames(bySource) {
			parts = append(parts, fmt.Sprintf("%s=%d", src, bySource[src]))
		}
		fmt.Fprintf(out, "%s: ok, JSONL trace, %d events (%s)\n", path, n, strings.Join(parts, " "))
	}
	return nil
}
